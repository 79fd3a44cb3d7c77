"""Adaptive quadrature in logarithmic tail coordinates.

All tail integrals in this package have the form int_0^s f(t) dt with an
integrand that is smooth on a log scale but steep near t = 0.  The
substitution t = s e^{-w} turns them into semi-infinite integrals with
exponentially decaying integrands, which the adaptive Gauss-Kronrod
machinery resolves quickly and with reliable error estimates.

The machinery is QUADPACK (Piessens, de Doncker-Kapenga, Ueberhuber and
Kahaner, 1983), ported operation for operation from its Fortran:

* QAGI with the 15-point rule QK15I on (0, 1), after x = 1/(1 + w), for
  ``semiinf_quad`` and ``tail_quads``;
* QAGS with the 21-point rule QK21 for ``log_interval_quad`` and
  ``log_interval_quads``;
* one shared bisection driver with QPSRT (error-ordered interval list)
  and QELG (the epsilon algorithm that extrapolates the partial sums).

Every value, error bound and warning is bit-identical to
``scipy.integrate.quad`` at the arguments used here (epsabs 1e-290,
limit 200); ``tests/test_quadpack.py`` checks that against scipy.  To stay
so, the arithmetic keeps QUADPACK's order of operations and summation,
its NaN behaviour (a Fortran ``if (a .le. b) goto`` reads ``not a <= b``
where the branch matters), C's ``fmax``/``fmin`` and C's IEEE results
where Python would raise (a division by zero, an overflowing power).

Quadratures run in lockstep.  ``_adapt`` is QUADPACK's driver written as
a generator: it yields the intervals of its next rule evaluation, first
the whole range and then both halves of each bisection, and is sent
their Kronrod sums back.  ``_lockstep`` advances a list of such
quadratures one bisection round at a time and makes one integrand call
per round for all of them.  The integrand is a step: ``_lockstep`` and
the rules are generators that pass on what it yields and is sent, so a
round can be a step of a request of ``functionals``.  Every tail
quadrature bisects the same dyadic tree on (0, 1), so most of a round's
intervals are shared: the round keeps each distinct interval once, in a
node table (a dict on the (a, b) pairs), and the integrand gets
``fn(rows, at, nodes)``: row i of ``nodes`` holds the 15 or 21 nodes of
distinct interval i, and row j of ``at`` the intervals of quadrature
``rows[j]``, one or both halves.  A node quantity is computed on the
table once and gathered per quadrature (``tail_quads`` takes libm e^{-w}
and e^{-beta w} once per distinct interval and beta).  The Gauss and
Kronrod sums stay per quadrature and interval: sequential
``np.add.accumulate`` chains along the node axis in QUADPACK's order,
never pairwise sums, and QK21's Gauss sum skips its Kronrod-only nodes.
The rest is elementwise IEEE arithmetic, so a quadrature's bits do not
depend on the batch it runs in.  Exponentials and powers stay per
element on libm (``cephes.exp_each``, ``x ** 1.5``): numpy's SIMD exp and
power differ from libm in the last bit on some doubles.

A batch of M quadratures makes max(last) integrand calls instead of the
sum of them, and may mix models, functionals and checks: a command step
of the functionals and the limit suite puts all its tail quadratures in
one batch.  ``tail_quads`` and ``log_interval_quads`` are the batched
integrals the functionals use.  ``semiinf_quad`` and
``log_interval_quad`` are the one-quadrature case of the same driver;
they hand their integrands the nodes of one round as a 1-d array.  A
quadrature whose integrand is a callback, one that returns its values,
enters through ``_run_quads``, which runs its batch to the end: those of
``tail_quads``, ``semiinf_quad`` and ``log_interval_quad``.  Those of
``log_interval_quads`` do not.  It is a request, the representation
residual's outer QAGS, whose integrand step asks for c(u) in each round,
and the request that holds it drives it.  A quadrature's interval lists
grow with its number of subintervals ``last``, one slot per bisection,
not to the limit of 200, so a batch of hundreds of short quadratures
stays small in memory.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .cephes import exp_each
from .errors import QuadratureError

DEFAULT_REL_TOL = 1e-11

# QUADPACK is asked for pure relative accuracy; the absolute floor only
# protects integrals that are themselves denormal-small.
_ABS_FLOOR = 1e-290
_LIMIT = 200

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max

# First lines of scipy's messages for QUADPACK's ier codes.
_MESSAGES = {
    1: "The maximum number of subdivisions ({limit}) has been achieved.",
    2: "The occurrence of roundoff error is detected, which prevents ",
    3: "Extremely bad integrand behavior occurs at some points of the",
    4: "The algorithm does not converge.  Roundoff error is detected",
    5: "The integral is probably divergent, or slowly convergent.",
}

# Gauss-Kronrod tables, outermost node first and the centre last.  A
# None Gauss weight marks a Kronrod-only node; QK15I keeps its zeros.
_XGK15 = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
          0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
          0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
          0.207784955007898467600689403773245)
_WGK15 = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
          0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
          0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
          0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG15 = (0.0, 0.129484966168869693270611432679082, 0.0,
         0.279705391489276667901467771423780, 0.0,
         0.381830050505118944950369775488975, 0.0,
         0.417959183673469387755102040816327)
_XGK21 = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
          0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
          0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
          0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
          0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WGK21 = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
          0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
          0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
          0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
          0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
          0.149445554002916905664936468389821)
_WG21 = (None, 0.066671344308688137593568809893332,
         None, 0.149451349150580593145776339657697,
         None, 0.219086362515982043995534934228163,
         None, 0.269266719309996355091226921569469,
         None, 0.295524224714752870173892994651338, None)


def _fmax(a, b):
    """C fmax: a NaN argument loses to the other."""
    return a if a >= b or b != b else b


def _div(a, b):
    """a / b with the IEEE result where Python raises ZeroDivisionError."""
    try:
        return a / b
    except ZeroDivisionError:
        if a != a or a == 0.0:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _table(xgk, wgk, wg, order):
    """A rule's arrays: abscissae, the centre's Kronrod weight, the Kronrod
    weights in summation order with that order, the centre's Gauss weight
    (None when the centre is a Kronrod-only node), the Gauss weights with
    their node indices, and the Kronrod weights of the pairs in node order."""
    gauss = [j for j in range(len(xgk)) if wg[j] is not None]
    return (np.array(xgk), wgk[-1], np.array([wgk[j] for j in order]),
            np.array(order, dtype=int), wg[-1], np.array([wg[j] for j in gauss]),
            np.array(gauss, dtype=int), np.array(wgk[:-1]))


# QK15I sums its Gauss terms over every pair, zero weights included (a
# zero times an inf value is NaN there, as in the Fortran); QK21 sums the
# Gauss nodes first, then the Kronrod-only ones, and skips the latter in
# its Gauss sum.
_K15I = _table(_XGK15, _WGK15, _WG15, range(7))
_K21 = _table(_XGK21, _WGK21, _WG21, (1, 3, 5, 7, 9, 0, 2, 4, 6, 8))


def _nodes(a, b, xgk):
    """The nodes of every interval (a[i], b[i]), one row each: its centre,
    then the pairs centre -/+ half-length * x_j.  Also returns the
    half-lengths."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    absc = hlgth[:, None] * xgk
    xs = np.empty((a.size, 2 * xgk.size + 1))
    xs[:, 0] = centr
    xs[:, 1::2] = centr[:, None] - absc
    xs[:, 2::2] = centr[:, None] + absc
    return xs, hlgth


def _sums(f, hlgth, table):
    """QUADPACK's Kronrod and Gauss sums and error estimate on each row of
    f, the values at one interval's nodes laid out as ``_nodes``.

    Every sum runs left to right in the Fortran loop's order: a sequential
    ``np.add.accumulate`` along the node axis, never a pairwise sum.  Only
    pow(r, 1.5) is per element: C pow, not numpy's power loop.  Returns
    the arrays (result, abserr, resabs, resasc).
    """
    _, wkc, wk, order, wgc, wg, gauss, wkpairs = table
    fc, fv1, fv2 = f[:, 0], f[:, 1::2], f[:, 2::2]
    fsum = fv1 + fv2
    kc = wkc * fc
    # rows of the Kronrod, absolute and Gauss sums; the Gauss sum is the
    # shorter one for QK21 and is read where its terms end
    ng = gauss.size + 1
    terms = np.zeros((3, fc.size, order.size + 1))
    terms[0, :, 0] = kc
    terms[1, :, 0] = np.abs(kc)
    if wgc is not None:
        terms[2, :, 0] = wgc * fc
    terms[0, :, 1:] = wk * fsum[:, order]
    terms[1, :, 1:] = wk * (np.abs(fv1) + np.abs(fv2))[:, order]
    terms[2, :, 1:ng] = wg * fsum[:, gauss]
    sums = np.add.accumulate(terms, axis=2)
    resk, resabs, resg = sums[0, :, -1], sums[1, :, -1], sums[2, :, ng - 1]
    reskh = resk * 0.5
    dev = reskh[:, None]
    terms = np.empty((fc.size, wkpairs.size + 1))
    terms[:, 0] = wkc * np.abs(fc - reskh)
    terms[:, 1:] = wkpairs * (np.abs(fv1 - dev) + np.abs(fv2 - dev))
    resasc = np.add.accumulate(terms, axis=1)[:, -1]
    dhlgth = np.abs(hlgth)
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = np.abs((resk - resg) * hlgth)
    scaled = (resasc != 0.0) & (abserr != 0.0)
    if scaled.any():
        r = 200.0 * abserr[scaled] / resasc[scaled]
        # fmin(1, pow(r, 1.5)); NaN gives 1 and r >= 1 cannot overflow
        abserr[scaled] = resasc[scaled] * np.array(
            [x**1.5 if x < 1.0 else 1.0 for x in r.tolist()])
    floor = _EPMACH * 50.0 * resabs
    # fmax(floor, abserr) where resabs is above the underflow bound
    return resk * hlgth, np.where(
        (resabs > _UFLOW / (50.0 * _EPMACH)) & ((floor >= abserr) | (abserr != abserr)),
        floor, abserr), resabs, resasc


def _qk15i(fn, rows, at, a, b):
    """QK15I on the intervals at[j] of quadrature rows[j], indices into
    the distinct intervals (a[i], b[i]) within (0, 1), for int_0^inf,
    w = (1 - x)/x; a step through the integrand step ``fn``."""
    xs, hlgth = _nodes(a, b, _K15I[0])
    fv = np.asarray((yield from fn(rows, at, (1.0 - xs) / xs)), dtype=float)
    xs = xs[at.ravel()]
    with np.errstate(over="ignore", invalid="ignore"):   # Python floats are silent
        return _sums((fv.reshape(at.size, -1) / xs) / xs, hlgth[at.ravel()], _K15I)


def _qk21(fn, rows, at, a, b):
    """QK21 on the intervals at[j] of quadrature rows[j], indices into
    the distinct intervals (a[i], b[i]); a step through ``fn``."""
    xs, hlgth = _nodes(a, b, _K21[0])
    fv = np.asarray((yield from fn(rows, at, xs)), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return _sums(fv.reshape(at.size, -1), hlgth[at.ravel()], _K21)


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """Keep iord descending in error; returns (maxerr, errmax, nrmax)."""
    if not last > 2:
        iord[1], iord[2] = 1, 2
    else:
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = limit + 3 - last if last > limit // 2 + 2 else last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """Epsilon algorithm on epstab[1..n]; returns (n, result, abserr, nres)."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = k1 = n
        for i in range(1, newelm + 1):
            res = epstab[k1 + 2]
            e0, e1, e2 = epstab[k1 - 2], epstab[k1 - 1], res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = _fmax(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = _fmax(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 agree to machine accuracy: converged
                return n, res, _fmax(err2 + err3, 5.0 * _EPMACH * abs(res)), nres
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = _fmax(e1abs, abs(e3)) * _EPMACH
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            if not abs(ss * e1) > 1e-4:
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if not error > abserr:
                abserr = error
                result = res
        if n == 50:   # the table keeps at most limexp = 50 elements
            n = 49
        ib = 2 if num % 2 == 0 else 1
        for _ in range(newelm + 1):
            epstab[ib] = epstab[ib + 2]
            ib += 2
        if num != n:
            epstab[1:n + 1] = epstab[num - n + 1:num + 1]
        if nres < 4:
            res3la[nres] = result
            abserr = _OFLOW
        else:
            abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                      + abs(result - res3la[1]))
            res3la[1:4] = res3la[2], res3la[3], result
    return n, result, _fmax(abserr, 5.0 * _EPMACH * abs(result)), nres


def _adapt(a, b, epsrel, limit=_LIMIT):
    """QAGSE / QAGIE as a generator: returns (result, abserr, ier, last) of
    int_a^b.

    It yields the intervals of each rule evaluation, first ((a, b),) and
    then the two halves of a bisection, and is sent their Kronrod tuples
    (result, abserr, resabs, resasc) back; ``_lockstep`` drives it.
    Lists are 1-based as in the Fortran and grow by one slot per
    bisection: nothing reads or writes past index ``last``.  ier is the
    user-facing code.
    """
    epsabs = _ABS_FLOOR
    alist, blist, rlist, elist, iord = [0.0, a], [0.0, b], [0.0, 0.0], [0.0, 0.0], [0, 0]
    ier = 0
    result, abserr, defabs, resabs = (yield ((a, b),))[0]
    dres = abs(result)
    errbnd = _fmax(epsabs, epsrel * dres)
    last = 1
    rlist[1], elist[1], iord[1] = result, abserr, 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier, last

    rlist2, res3la = [0.0] * 53, [0.0] * 4
    rlist2[1] = result
    errmax, maxerr, area, errsum, abserr = abserr, 1, result, abserr, _OFLOW
    nrmax, nres, numrl2, ktmin = 1, 0, 2, 0
    extrap = noext = False
    ierro = iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    small = erlarg = ertest = correc = 0.0
    tail = "check"   # where the loop leaves to: "check" or "sum"
    for last in range(2, limit + 1):
        for column in (alist, blist, rlist, elist):
            column.append(0.0)
        iord.append(0)
        # bisect the subinterval with the nrmax-th largest error estimate
        a1, b2 = alist[maxerr], blist[maxerr]
        b1 = a2 = 0.5 * (alist[maxerr] + blist[maxerr])
        erlast = errmax
        (area1, error1, _, defab1), (area2, error2, _, defab2) = yield (
            (a1, b1), (a2, b2))
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr], rlist[last] = area1, area2
        errbnd = _fmax(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if _fmax(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr], alist[last], blist[last] = a2, a1, b1
            rlist[maxerr], rlist[last] = area2, area1
            elist[maxerr], elist[last] = error2, error1
        else:
            alist[last], blist[maxerr], blist[last] = a2, b1, b2
            elist[maxerr], elist[last] = error1, error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            tail = "sum"
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg, ertest, rlist2[2] = errsum, errbnd, area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: bisect the
            # larger ones first while their errors dominate
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                larger = abs(blist[maxerr] - alist[maxerr]) > small
                if larger:
                    break
                nrmax += 1
            if larger:
                continue
        # extrapolate
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr, result, correc = abseps, reseps, erlarg
            ertest = _fmax(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    if tail == "check":
        # set the final result and error estimate
        if abserr == _OFLOW:
            tail = "sum"
        elif ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                if abserr / abs(result) > errsum / abs(area):
                    tail = "sum"
            elif abserr > errsum:
                tail = "sum"
            elif area == 0.0:
                tail = "done"
    if tail == "check":
        # test on divergence
        if not (ksgn == -1 and _fmax(abs(result), abs(area)) <= defabs * 0.01):
            ratio = _div(result, area)
            if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
                ier = 6
    elif tail == "sum":
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    return result, abserr, ier - 1 if ier > 2 else ier, last


def _lockstep(rule, fn, bounds, epsrel, limit=_LIMIT):
    """(result, abserr, ier, last) of the integral over each (a, b) in
    ``bounds`` by ``rule``, the quadratures run in lockstep.

    Each round collects the intervals every unfinished quadrature asks
    for, both halves of its next bisection, keeps each distinct interval
    once, and evaluates them all with one ``rule`` call and so one
    integrand call ``fn(rows, at, nodes)``: row i of the node table
    ``nodes`` holds the nodes of distinct interval i, and row j of ``at``
    the indices of the intervals of quadrature ``rows[j]``.  A quadrature
    leaves the round in which it finishes, so a batch makes max(last)
    integrand calls.  Each quadrature's arithmetic is its own and
    elementwise, so its numbers do not depend on the batch around it.

    ``fn`` is an integrand step: a generator that returns the values at
    the nodes, and may first yield what it asks for and be sent the
    answers (a request step of ``functionals``).  ``rule`` and
    ``_lockstep`` are generators that pass those on, so each round of the
    batch is a step of whoever drives it; they return their results.
    """
    runs = [_adapt(a, b, epsrel, limit) for a, b in bounds]
    out = [None] * len(runs)
    rows = list(range(len(runs)))
    asks = [next(run) for run in runs]
    while rows:
        table = {}
        at = np.array([table.setdefault(ab, len(table)) for ask in asks for ab in ask]
                      ).reshape(len(asks), -1)
        ends = np.array(list(table))
        sums = yield from rule(fn, rows, at, ends[:, 0], ends[:, 1])
        sums = list(zip(*(v.tolist() for v in sums)))
        per = at.shape[1]
        live, asks = [], []
        for j, i in enumerate(rows):
            try:
                asks.append(runs[i].send(sums[j * per:(j + 1) * per]))
                live.append(i)
            except StopIteration as done:
                out[i] = done.value
        rows = live
    return out


def _outcome(value, abserr, ier, rel_tol, what):
    """(value, abserr), or the QuadratureError the quadrature earns."""
    if ier:
        # QUADPACK attached a warning: accuracy not certified.
        tol = max(_ABS_FLOOR, rel_tol * abs(value))
        if not math.isfinite(value) or abserr > 100.0 * tol:
            return QuadratureError(
                f"{what}: quadrature did not converge "
                f"({_MESSAGES[ier].format(limit=_LIMIT)})",
                estimate=value,
                error_bound=abserr,
            )
    if not math.isfinite(value):
        return QuadratureError(f"{what}: integral is not finite", estimate=value)
    return value, abserr


def _quads(rule, fn, bounds, rel_tol, whats):
    """The request of one ``_lockstep`` batch of the integrand step ``fn``,
    labelled quadrature by quadrature with ``whats``: returns each one's
    (value, abserr) or its QuadratureError, returned, not raised."""
    results = yield from _lockstep(rule, fn, bounds, rel_tol)
    return [_outcome(value, abserr, ier, rel_tol, what)
            for (value, abserr, ier, _), what in zip(results, whats)]


def _run_quads(rule, fn, bounds, rel_tol, whats):
    """``_quads`` of a callback integrand: ``fn(rows, at, nodes)`` returns
    the values at the nodes, so the batch runs to its end here."""
    def step(*nodes):   # an integrand step that asks for nothing
        return fn(*nodes)
        yield

    try:
        next(_quads(rule, step, bounds, rel_tol, whats))
    except StopIteration as done:
        return done.value


def _settled(outcome):
    if isinstance(outcome, QuadratureError):
        raise outcome
    return outcome


def semiinf_quad(fn, rel_tol=DEFAULT_REL_TOL, what="integral"):
    """int_0^inf fn(w) dw with error estimate; raises QuadratureError on failure.

    ``fn`` maps an array of nodes w to their values (QAGI).
    """
    return _settled(_run_quads(_qk15i, lambda rows, at, ws: fn(ws[at].ravel()),
                               [(0.0, 1.0)], rel_tol, [what])[0])


def _log_scale(bounds):
    """Each (a, b) of ``bounds``, 0 < a < b < 1, as (-ln b, -ln a): the
    range of y = -ln u."""
    if not all(0.0 < a < b < 1.0 for a, b in bounds):
        raise ValueError("need 0 < a < b < 1")
    return [(-math.log(b), -math.log(a)) for a, b in bounds]


def log_interval_quad(fn, a, b, rel_tol=DEFAULT_REL_TOL, what="integral"):
    """int_a^b fn(u) du for 0 < a < b < 1, integrated on the log scale u = e^{-y}.

    ``fn`` maps an array of nodes u to their values (QAGS).
    """
    def g(rows, at, ys):
        us = exp_each(-ys[at].ravel())
        return us * fn(us)

    return _settled(_run_quads(_qk21, g, _log_scale([(a, b)]), rel_tol, [what])[0])


def log_interval_quads(fn, bounds, rel_tol, whats):
    """The request for int_a^b fn(u) du at every (a, b) in ``bounds``,
    0 < a < b < 1, on the log scale u = e^{-y} and in lockstep; ``whats``
    labels each quadrature.

    ``fn(rows, us)`` is an integrand step (see ``_lockstep``): it gets the
    nodes of one round as a flat array, where ``rows[j]`` is the index in
    ``bounds`` of node j's quadrature, and returns their values.  Each u
    is computed once per distinct interval of the round.  What ``fn``
    yields, this request yields, so each QAGS round that asks for
    something is a step.  Returns one (value, error) per interval, or the
    QuadratureError its quadrature earns, returned, not raised.
    """
    def g(rows, at, ys):
        us = exp_each(-ys.ravel()).reshape(ys.shape)[at].ravel()
        return us * (yield from fn(np.repeat(rows, us.size // len(rows)), us))

    return _quads(_qk21, g, _log_scale(bounds), rel_tol, whats)


def tail_quads(fn, ss, betas, rel_tol, whats):
    """int_0^inf fn(w, t) dw along t = s e^{-w} for every s in ``ss``, in
    lockstep; quadrature i weighs its nodes by e^{-beta w}, beta =
    ``betas[i]``, and ``whats`` labels each.

    ``fn(rows, ts, ews)`` gets the nodes of one round as flat arrays,
    every node of every unfinished quadrature: t and e^{-beta w} at each,
    where ``rows[j]`` is the index in ``ss`` of node j's quadrature; it
    returns their values.  It only ever sees strictly positive t.  A node
    where t underflows past the smallest subnormal contributes exactly
    zero.  A tail integral int_0^s f(t) dt is ``fn = t * f(t)`` per node.

    The round's node table holds e^{-w} once per distinct interval, for
    t and for beta = 1, and e^{-beta w} once per distinct interval and
    other beta that some quadrature of the round asks for.

    Returns one (value, error) per s, or the QuadratureError its
    quadrature earns, returned, not raised.
    """
    ss = np.array(ss, dtype=float)
    if not ((ss > 0.0) & (ss < 1.0)).all():
        raise ValueError("need 0 < s < 1")
    betas = np.array(betas, dtype=float)

    def g(rows, at, ws):
        rows = np.array(rows)
        # -1.0 * w is -w bit for bit, so beta = 1 reads e^{-w}
        ews = exp_each(-ws.ravel()).reshape(ws.shape)[at]
        ts = np.repeat(ss[rows], ews[0].size) * ews.ravel()
        beta_of = betas[rows]
        for beta in dict.fromkeys(beta_of.tolist()):
            if beta == 1.0:
                continue
            mine = beta_of == beta
            need = np.zeros(len(ws), dtype=bool)
            need[at[mine]] = True
            table = np.empty(ws.shape)
            table[need] = exp_each(-beta * ws[need].ravel()).reshape(-1, ws.shape[1])
            ews[mine] = table[at[mine]]
        rows = np.repeat(rows, ews[0].size)
        ews = ews.ravel()
        live = ts > 0.0
        if live.all():
            return fn(rows, ts, ews)
        vals = np.zeros(ts.size)
        if live.any():
            vals[live] = fn(rows[live], ts[live], ews[live])
        return vals

    return _run_quads(_qk15i, g, [(0.0, 1.0)] * ss.size, rel_tol, whats)
