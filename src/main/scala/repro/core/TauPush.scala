package repro.core

import repro.graph.LocalGraph
import repro.ppr.Deadline

/** Output of Algorithm 1: the approximate level-ℓ DPPR matrix, the PDist
  * matrix derived from it via Eq. 1, and work counters.
  */
final case class TauPushResult(
    dppr: Array[Array[Double]],
    pdist: Array[Array[Double]],
    gbpTargets: Int,
    pushes: Long,
)

/** Tau-Push (Algorithm 1) — filter-refinement estimation of all-pair level-ℓ
  * DPPR inside a selected supernode S:
  *
  *  1. τ ← 1/√(k·n); r_max ← ε·δ/(m·τ)                       (Lines 1–2, Eq. 5)
  *  2. GFP from every child V_i                               (Lines 3–4)
  *  3. r^b_max ← ε·δ / max_i avgdeg(V_i)                      (Line 5, Eq. 6)
  *  4. GBP into every child V_j with DPR τ_j > τ              (Lines 6–7)
  *  5. convert DPPR to PDist via Eq. 1                        (Lines 8–9)
  *
  * Steps 2 and 4 run one push per child, independent of each other, so they
  * run in parallel on all cores ([[FanOut]]) with results identical to a
  * sequential loop.
  *
  * The `GfpTauMax` mode is the ablation variant GFP(τ_max) of §7.4: τ is set
  * to max_j τ_j so GFP alone already satisfies Lemma 4.1 for every target and
  * the GBP phase is skipped entirely.
  */
object TauPush {

  sealed trait Mode
  case object Standard  extends Mode
  case object GfpTauMax extends Mode

  /** @param leafDpr   precomputed leaf DPR vector (the O(n) index of §4.3)
    * @param gbpLookup optional precomputed GBP results for a child index:
    *                  the aggregated estimates π̂_d(V_i, V_j) for every
    *                  source child V_i (the O(k·√(kn)) index of §4.3 — each
    *                  supernode is a child of exactly one query, so its k
    *                  sibling aggregates can be stored offline); children
    *                  missing from the lookup fall back to a live GBP run
    */
  def run(g: LocalGraph, q: SuperQuery, leafDpr: Array[Double], alpha: Double,
          eps: Double, delta: Double, mode: Mode = Standard,
          deadline: Deadline = Deadline.none,
          gbpLookup: Int => Option[Array[Double]] = _ => None): TauPushResult = {
    val k = q.k
    val n = g.n
    val m = g.m.toDouble

    // Supernode DPR: mean leaf DPR over F(V_j) (Eq. 4).
    val tauJ = Array.tabulate(k) { j =>
      var s = 0.0
      q.children(j).foreach(v => s += leafDpr(v))
      s / q.size(j)
    }

    val tau = mode match {
      case Standard  => 1.0 / math.sqrt(k.toDouble * n)
      case GfpTauMax => tauJ.max
    }
    // Lemma 4.1 only requires r_max <= ε·δ/(m·τ_j) for the targets GFP is
    // responsible for (τ_j <= τ); the binding constraint is the largest such
    // τ_j, not τ itself. Using that cover value is exactly what the
    // filter-refinement split buys: GBP handles every τ_j > τ, so GFP can
    // stop at the depth the remaining targets need. (On supernode-level
    // queries, DPRs concentrate near 1/n — far below 1/√(kn), App. A.4 —
    // and Eq. 5 taken literally would push ~√(kn)·τ_max/... deeper than any
    // covered target requires.)
    val tauCover = mode match {
      case GfpTauMax => tau
      case Standard =>
        val covered = tauJ.filter(_ <= tau)
        if (covered.isEmpty || covered.max <= 0.0) tau else covered.max
    }
    val rmax = eps * delta / (m * tauCover)

    val rbmax = eps * delta / (0 until k).map(q.avgDeg(_, g.outDeg)).max

    // GBP targets (Line 6) missing from the index get a live GBP run. The k
    // GFP runs and the live GBP runs are independent, so they fan out across
    // cores; each writes only its own slot, which keeps the result identical
    // to running them one after another.
    val gbpJ = if (mode == Standard) (0 until k).filter(tauJ(_) > tau).toArray else Array.empty[Int]
    val refined = gbpJ.map(gbpLookup(_).orNull)
    val live    = gbpJ.indices.filter(refined(_) == null).toArray

    val dppr = new Array[Array[Double]](k)
    val work = new Array[Long](k + live.length)
    FanOut.foreach(k + live.length) { t =>
      if (t < k) {
        val r = Gfp.run(g, q, t, alpha, rmax, deadline)
        dppr(t) = r.est
        work(t) = r.pushes
      } else {
        val x = live(t - k)
        val (c, p) = Gbp.credits(g, q.children(gbpJ(x)), alpha, rbmax, deadline)
        refined(x) = Gbp.aggregate(q, c)
        work(t) = p
      }
    }

    gbpJ.indices.foreach { x =>
      val j = gbpJ(x)
      var s = 0
      while (s < k) {
        if (s != j) dppr(s)(j) = refined(x)(s)
        s += 1
      }
    }

    TauPushResult(dppr, PDist.matrix(dppr, n), gbpJ.length, work.sum)
  }
}
