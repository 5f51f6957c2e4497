"""Independent brute-force oracle for every metric, by direct counting over rows.

Deliberately written with plain loops and dicts (no numpy, no shared helpers)
so it stays an independent route from the package implementation.
"""

import math


def _stats(rows):
    """rows: iterable of (y_true, y_pred, key); returns per-key raw counts."""
    stats = {}
    for yt, yp, key in rows:
        s = stats.setdefault(key, {"n": 0, "pos": 0, "neg": 0, "pred1": 0, "tp": 0, "fp": 0})
        s["n"] += 1
        s["pred1"] += 1 if yp == 1 else 0
        if yt == 1:
            s["pos"] += 1
            s["tp"] += 1 if yp == 1 else 0
        else:
            s["neg"] += 1
            s["fp"] += 1 if yp == 1 else 0
    return stats


def wc_metrics(rows):
    stats = _stats(rows)
    rates = [s["pred1"] / s["n"] for s in stats.values()]
    tprs = [s["tp"] / s["pos"] for s in stats.values() if s["pos"] > 0]
    sums = [s["fp"] / s["neg"] + s["tp"] / s["pos"]
            for s in stats.values() if s["pos"] > 0 and s["neg"] > 0]
    wc_spd = max(rates) - min(rates)
    wc_aod = 0.5 * (max(sums) - min(sums))
    wc_eod = max(tprs) - min(tprs)
    return wc_spd, wc_aod, wc_eod


def ac_metrics(rows):
    stats = _stats(rows)
    n = sum(s["n"] for s in stats.values())
    pos = sum(s["pos"] for s in stats.values())
    neg = sum(s["neg"] for s in stats.values())
    pop_rate = sum(s["pred1"] for s in stats.values()) / n
    pop_tpr = sum(s["tp"] for s in stats.values()) / pos
    pop_fpr = sum(s["fp"] for s in stats.values()) / neg

    spd_devs = [abs(s["pred1"] / s["n"] - pop_rate) for s in stats.values()]
    eod_devs = [abs(s["tp"] / s["pos"] - pop_tpr) for s in stats.values() if s["pos"] > 0]
    aod_devs = [
        0.5 * (abs(s["fp"] / s["neg"] - pop_fpr) + abs(s["tp"] / s["pos"] - pop_tpr))
        for s in stats.values() if s["pos"] > 0 and s["neg"] > 0
    ]
    return (sum(spd_devs) / len(spd_devs),
            sum(aod_devs) / len(aod_devs),
            sum(eod_devs) / len(eod_devs))


def group_metrics(rows):
    """Absolute-difference form for 2 groups, max-minus-min beyond that."""
    stats = _stats(rows)
    rates = [s["pred1"] / s["n"] for s in stats.values()]
    tprs = [s["tp"] / s["pos"] for s in stats.values() if s["pos"] > 0]
    fprs = [s["fp"] / s["neg"] for s in stats.values() if s["pos"] > 0 and s["neg"] > 0]
    tprs_a = [s["tp"] / s["pos"] for s in stats.values() if s["pos"] > 0 and s["neg"] > 0]
    spd = max(rates) - min(rates)
    aod = 0.5 * ((max(fprs) - min(fprs)) + (max(tprs_a) - min(tprs_a)))
    eod = max(tprs) - min(tprs)
    return spd, aod, eod


def performance(pairs):
    """pairs: iterable of (y_true, y_pred)."""
    tp = fp = tn = fn = 0
    for yt, yp in pairs:
        if yt == 1 and yp == 1:
            tp += 1
        elif yt == 0 and yp == 1:
            fp += 1
        elif yt == 0 and yp == 0:
            tn += 1
        else:
            fn += 1
    total = tp + fp + tn + fn
    accuracy = (tp + tn) / total

    def one_class(tp_c, fp_c, fn_c):
        p = tp_c / (tp_c + fp_c) if tp_c + fp_c else 0.0
        r = tp_c / (tp_c + fn_c) if tp_c + fn_c else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        return p, r, f

    p1, r1, f1 = one_class(tp, fp, fn)
    p0, r0, f0 = one_class(tn, fn, fp)
    denom = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    mcc = (tp * tn - fp * fn) / denom if denom else 0.0
    return accuracy, (p1 + p0) / 2, (r1 + r0) / 2, (f1 + f0) / 2, mcc


def tradeoff_region(curve, fairness, performance):
    """Fairea region of a (fairness, performance) case against ``curve``, a list of
    (fairness, performance) points whose first is the original model's, and
    whether the baseline fairness was clamped to a curve point. A segment walk."""
    orig_f, orig_p = curve[0]
    if performance >= orig_p:
        if fairness < orig_f:
            return "win-win", False
        if fairness == orig_f:
            return ("good" if performance == orig_p else "win-win"), False
        return "inverted", False
    if fairness >= orig_f:
        return "lose-lose", False
    spanning = []
    for (a_f, a_p), (b_f, b_p) in zip(curve, curve[1:]):
        if min(a_p, b_p) <= performance <= max(a_p, b_p):
            if a_p == b_p:
                spanning.append(min(a_f, b_f))
            else:
                t = (performance - a_p) / (b_p - a_p)
                spanning.append(a_f + t * (b_f - a_f))
    clamped = not spanning
    if clamped:
        best = None
        for f, p in curve:  # the first point nearest in performance
            if best is None or abs(p - performance) < best[0]:
                best = (abs(p - performance), f)
        threshold = best[1]
    else:
        threshold = min(spanning)
    return ("good" if fairness < threshold else "poor"), clamped


def exact_mwu_p(a, b):
    """Exact two-tailed p by enumerating every assignment of pooled values."""
    from itertools import combinations

    pooled = sorted(list(a) + list(b))
    n_a = len(a)

    def u_of(vals_a, vals_b):
        # count of (x in a, y in b) pairs with x > y, ties counting half
        u = 0.0
        for x in vals_a:
            for y in vals_b:
                if x > y:
                    u += 1.0
                elif x == y:
                    u += 0.5
        return u

    u_obs = u_of(a, b)
    u_low = min(u_obs, n_a * len(b) - u_obs)
    count = total = 0
    for picks in combinations(range(len(pooled)), n_a):
        chosen = [pooled[i] for i in picks]
        rest = [pooled[i] for i in range(len(pooled)) if i not in picks]
        u_perm = u_of(chosen, rest)
        if min(u_perm, n_a * len(b) - u_perm) <= u_low + 1e-12:
            count += 1
        total += 1
    return min(1.0, count / total)
