package repro.core

import repro.graph.LocalGraph
import repro.ppr.{Deadline, NodeQueue}

/** Result of one GFP run from a source supernode: per-child DPPR estimates,
  * the full residue vector (consumed by GFRA's sampling phase), its sum, and
  * the push-operation count.
  */
final case class GfpResult(
    est: Array[Double],
    residue: Array[Double],
    rsum: Double,
    pushes: Long,
)

/** Group Forward-Push (Algorithm 2).
  *
  * Forward push started from *all* leaves of the source supernode V_i
  * simultaneously (residue `d(v)/|F(V_i)|` on each leaf, Line 2) — the
  * grouped strategy that reduces the number of leaf-level invocations from
  * O(k^{ℓ+1}) to O(k). While some node v_k has `r > d(v_k)·r_max`, α·r is
  * converted — credited to π̂_d(V_i, V_j)·|F(V_j)|⁻¹ when v_k lies inside a
  * child V_j of S (Lines 4–5) — and (1-α)·r is spread over out-neighbours.
  * The push order is [[Push]]'s: FIFO, then sweeps once the frontier is
  * dense; the stopping rule, and with it Lemma 4.1, does not depend on it.
  */
object Gfp {

  def run(g: LocalGraph, q: SuperQuery, srcChild: Int, alpha: Double,
          rmax: Double, deadline: Deadline = Deadline.none): GfpResult =
    runWithOutcome(g, q, srcChild, alpha, rmax, deadline, Long.MaxValue)._1

  /** [[run]] under an op budget, plus how its push schedule ended. */
  private[core] def runWithOutcome(g: LocalGraph, q: SuperQuery, srcChild: Int, alpha: Double,
                                   rmax: Double, deadline: Deadline,
                                   opBudget: Long): (GfpResult, Push.Outcome) = {
    val n       = g.n
    val outOff  = g.outOff
    val outAdj  = g.outAdj
    val members = q.members
    val residue = new Array[Double](n)
    val est     = new Array[Double](q.k)
    val srcLeaves = q.children(srcChild)
    val srcSize   = srcLeaves.length.toDouble
    srcLeaves.foreach(v => residue(v) = g.outDeg(v) / srcSize)

    val inQueue = new Array[Boolean](n)
    val queue   = new NodeQueue(n)
    srcLeaves.foreach { v =>
      if (residue(v) > g.outDeg(v) * rmax) { queue.add(v); inQueue(v) = true }
    }

    // The [[Push]] schedule: FIFO, then sweeps.
    val switchAt  = Push.sweepFrom(n)
    var pushes    = 0L
    var truncated = false
    while (!queue.isEmpty && queue.size < switchAt && !truncated) {
      val vk = queue.poll(deadline); inQueue(vk) = false
      val r  = residue(vk)
      val dv = g.outDeg(vk)
      if (r > dv * rmax) {
        if (pushes >= opBudget) truncated = true
        else {
          val cj = members(vk)
          if (cj >= 0) est(cj) += alpha * r / q.size(cj)
          val share = (1.0 - alpha) * r / dv
          residue(vk) = 0.0
          var e = outOff(vk)
          val end = outOff(vk + 1)
          while (e < end) {
            val u = outAdj(e)
            residue(u) += share
            if (!inQueue(u) && residue(u) > g.outDeg(u) * rmax) { queue.add(u); inQueue(u) = true }
            e += 1
          }
          pushes += dv
        }
      }
    }
    val swept = !queue.isEmpty && !truncated
    if (swept) {
      var scanned = 0
      var pushed  = true
      while (pushed && !truncated) {
        pushed = false
        var vk = 0
        while (vk < n && !truncated) {
          if ((scanned & 0x3ff) == 0) deadline.check()
          scanned += 1
          val r   = residue(vk)
          val e0  = outOff(vk)
          val end = outOff(vk + 1)
          val dv  = end - e0
          if (r > dv * rmax) {
            if (pushes >= opBudget) truncated = true
            else {
              val cj = members(vk)
              if (cj >= 0) est(cj) += alpha * r / q.size(cj)
              val share = (1.0 - alpha) * r / dv
              residue(vk) = 0.0
              var e = e0
              while (e < end) { residue(outAdj(e)) += share; e += 1 }
              pushes += dv
              pushed = true
            }
          }
          vk += 1
        }
      }
    }
    val outcome = Push.Outcome(pushes, swept, converged = !truncated)

    var rsum = 0.0
    var i = 0
    while (i < n) { rsum += residue(i); i += 1 }
    (GfpResult(est, residue, rsum, outcome.pushes), outcome)
  }
}

/** One [[Gbp]] run: the per-node credits, the final degree-scaled residues
  * s(v) = d(v)·r(v), and how its push schedule ended.
  */
private[repro] final case class GbpRun(credit: Array[Double], scaled: Array[Double],
                                       outcome: Push.Outcome)

/** Group Backward-Push (Algorithm 3).
  *
  * Backward push started from all leaves of the target supernode V_j
  * (residue `1/|F(V_j)|` on each, Line 2), traversing in-edges. Whenever a
  * node v_k with `r > r^b_max` is processed, `α·d(v_k)·r` is accumulated as a
  * per-node credit; the per-source estimate is
  * `π̂_d(V_i, V_j) = Σ_{v ∈ F(V_i)} credit(v) / |F(V_i)|` (Lines 4–5).
  *
  * The loop keeps each residue scaled by the out-degree, s(v) = d(v)·r(v):
  * the test is `s(v) > d(v)·r^b_max`, the credit is `α·s(v)`, and each
  * in-neighbour u gets `s(u) += (1-α)·s(v)/d(v)`, one division per push
  * instead of one per edge. The push order is [[Push]]'s, as in [[Gfp]];
  * the stopping rule, and with it Lemma 4.2, is unchanged.
  *
  * The per-node credit vector is *query independent* (propagation never reads
  * S), which is what makes the paper's GBP precomputation / indexing scheme
  * (§4.3) possible: [[run]] aggregates live against a query, while
  * [[credits]] returns the raw sparse credit vector for the index.
  */
object Gbp {

  /** Query-independent per-node credits `Σ α·d(v)·r(v, V_j)` for the target
    * leaf set, plus push count. `opBudget` is checked before every push, so
    * a run stops at most one push (≤ max in-degree operations) past it.
    */
  def credits(g: LocalGraph, targetLeaves: Array[Int], alpha: Double,
              rbmax: Double, deadline: Deadline = Deadline.none,
              opBudget: Long = Long.MaxValue): (Array[Double], Long) = {
    val r = creditsWithOutcome(g, targetLeaves, alpha, rbmax, deadline, opBudget)
    (r.credit, r.outcome.pushes)
  }

  /** [[credits]], plus the final residues and how the run ended. */
  private[repro] def creditsWithOutcome(g: LocalGraph, targetLeaves: Array[Int], alpha: Double,
                                        rbmax: Double, deadline: Deadline,
                                        opBudget: Long): GbpRun = {
    val n       = g.n
    val outOff  = g.outOff
    val inOff   = g.inOff
    val inAdj   = g.inAdj
    val scaled  = new Array[Double](n)
    val credit  = new Array[Double](n)
    val tSize   = targetLeaves.length.toDouble
    targetLeaves.foreach(v => scaled(v) = g.outDeg(v) / tSize)

    val inQueue = new Array[Boolean](n)
    val queue   = new NodeQueue(n)
    targetLeaves.foreach { v =>
      if (scaled(v) > g.outDeg(v) * rbmax) { queue.add(v); inQueue(v) = true }
    }

    // The [[Push]] schedule, as in [[Gfp]].
    val switchAt  = Push.sweepFrom(n)
    var pushes    = 0L
    var truncated = false
    while (!queue.isEmpty && queue.size < switchAt && !truncated) {
      val vk = queue.poll(deadline); inQueue(vk) = false
      val s  = scaled(vk)
      val dv = g.outDeg(vk)
      if (s > dv * rbmax) {
        if (pushes >= opBudget) truncated = true
        else {
          credit(vk) += alpha * s
          scaled(vk) = 0.0
          val spread = (1.0 - alpha) * s / dv
          var e = inOff(vk)
          val end = inOff(vk + 1)
          while (e < end) {
            val u = inAdj(e)
            scaled(u) += spread
            if (!inQueue(u) && scaled(u) > g.outDeg(u) * rbmax) { queue.add(u); inQueue(u) = true }
            e += 1
          }
          pushes += end - inOff(vk)
        }
      }
    }
    val swept = !queue.isEmpty && !truncated
    if (swept) {
      var scanned = 0
      var pushed  = true
      while (pushed && !truncated) {
        pushed = false
        var vk = 0
        while (vk < n && !truncated) {
          if ((scanned & 0x3ff) == 0) deadline.check()
          scanned += 1
          val s  = scaled(vk)
          val dv = outOff(vk + 1) - outOff(vk)
          if (s > dv * rbmax) {
            if (pushes >= opBudget) truncated = true
            else {
              credit(vk) += alpha * s
              scaled(vk) = 0.0
              val spread = (1.0 - alpha) * s / dv
              var e = inOff(vk)
              val end = inOff(vk + 1)
              while (e < end) { scaled(inAdj(e)) += spread; e += 1 }
              pushes += end - inOff(vk)
              pushed = true
            }
          }
          vk += 1
        }
      }
    }
    GbpRun(credit, scaled, Push.Outcome(pushes, swept, converged = !truncated))
  }

  /** Aggregate a credit vector into per-source-child estimates for a query. */
  def aggregate(q: SuperQuery, credit: Array[Double]): Array[Double] = {
    val est = new Array[Double](q.k)
    var i = 0
    while (i < q.k) {
      var s = 0.0
      q.children(i).foreach(v => s += credit(v))
      est(i) = s / q.size(i)
      i += 1
    }
    est
  }

  /** Algorithm 3 end-to-end: estimates π̂_d(V_i, V_j) for every child V_i. */
  def run(g: LocalGraph, q: SuperQuery, tgtChild: Int, alpha: Double,
          rbmax: Double, deadline: Deadline = Deadline.none): Array[Double] = {
    val (credit, _) = credits(g, q.children(tgtChild), alpha, rbmax, deadline)
    aggregate(q, credit)
  }
}

/** The push schedule of [[Gfp]] and [[Gbp]]: a FIFO queue while the
  * frontier is sparse, then, once the queue holds [[sweepFrom]] nodes,
  * sweeps over v = 0..n-1 that push every node over its threshold until a
  * sweep pushes nothing (PowerPush, Wu et al., SIGMOD 2021). A sweep pushes
  * each edge without a queue or a threshold test. Both phases stop on the
  * same rule, every residue at or below its threshold, so the kernels'
  * error bounds hold whatever the order.
  *
  * The FIFO phase checks the deadline in [[NodeQueue.poll]]; the sweep phase
  * checks it on its first node and then every 1 024 scanned nodes. The op
  * budget is checked before every push, so a run stops at most one push
  * past it.
  *
  * Each kernel writes this schedule out with its push inline in both
  * phases, so the two copies of a kernel's push must change together.
  * Sharing them cost push rate, because the JIT then often pushes out of
  * line: passing the push to one shared loop as a function value made GFP
  * 8–35% slower, and calling one push, or one credit step, from both
  * phases 5–25% slower.
  */
private[repro] object Push {

  /** Queue size at which a run switches from FIFO pushes to sweeps: n/16.
    * The FIFO phase keeps runs that stay sparse local, since every sweep
    * scans all n nodes.
    */
  def sweepFrom(n: Int): Int = n / 16

  /** How a run ended: its pushed edges, whether it reached the sweep phase,
    * and whether it converged, every residue at or below its threshold.
    * Only an op budget stops a run before it converges; a run whose last
    * push crosses the budget has converged.
    */
  final case class Outcome(pushes: Long, swept: Boolean, converged: Boolean)
}
