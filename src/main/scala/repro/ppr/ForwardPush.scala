package repro.ppr

import repro.graph.LocalGraph

/** Result of a push run: per-node estimates, per-node leftover residues and
  * their sum, plus the number of push operations performed.
  */
final case class PushResult(
    est: Array[Double],
    residue: Array[Double],
    rsum: Double,
    pushes: Long,
)

/** Forward-Push (Andersen et al. [4]) — the deterministic graph traversal of
  * §3.3 / Fig. 4.
  *
  * Maintains residues r(v) and estimates π̂(v); while some node has
  * `r(v) > d(v)·rmax`, converts α·r(v) into the estimate at v and spreads the
  * remaining (1-α)·r(v) evenly over v's out-neighbours. The invariant of
  * Eq. (3) holds throughout, so with initial residue r(s)=d(s) the estimates
  * approximate DPPR π_d(s, ·).
  */
object ForwardPush {

  /** Run forward push from arbitrary initial residues (callers encode the
    * source: `r(s)=d(s)` for single-source DPPR, the Line-2 initialisation of
    * Algorithm 2 for GFP).
    */
  def push(g: LocalGraph, init: Array[Double], alpha: Double, rmax: Double,
           deadline: Deadline = Deadline.none): PushResult = {
    val n       = g.n
    val outOff  = g.outOff
    val outAdj  = g.outAdj
    val residue = init.clone()
    val est     = new Array[Double](n)
    val inQueue = new Array[Boolean](n)
    val queue   = new NodeQueue(n)
    var v = 0
    while (v < n) {
      if (residue(v) > g.outDeg(v) * rmax) { queue.add(v); inQueue(v) = true }
      v += 1
    }
    var pushes = 0L
    while (!queue.isEmpty) {
      val vk = queue.poll(deadline); inQueue(vk) = false
      val r  = residue(vk)
      val dv = g.outDeg(vk)
      if (r > dv * rmax) {
        est(vk) += alpha * r
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
    var rsum = 0.0
    var i = 0
    while (i < n) { rsum += residue(i); i += 1 }
    PushResult(est, residue, rsum, pushes)
  }

  /** Single-source DPPR estimates with the paper's initialisation
    * `r(s, s) = d(s)` (§7.1).
    */
  def dppr(g: LocalGraph, src: Int, alpha: Double, rmax: Double,
           deadline: Deadline = Deadline.none): PushResult = {
    val init = new Array[Double](g.n)
    init(src) = g.outDeg(src).toDouble
    push(g, init, alpha, rmax, deadline)
  }
}

/** Backward-Push (Lofgren–Goel [50]) — reverse traversal along in-edges.
  *
  * With initial residue r(t)=1 at a target t, pushes while `r(v) > rbmax`:
  * converts α·r(v) into π̂(v, t) and spreads (1-α)·r(v) to each in-neighbour
  * u scaled by 1/d(u) (illustrated on the r.h.s. graph of Fig. 5). Estimates
  * approximate π(·, t); multiply by d(v) for DPPR.
  */
object BackwardPush {

  def push(g: LocalGraph, init: Array[Double], alpha: Double, rbmax: Double,
           deadline: Deadline = Deadline.none): PushResult = {
    val n       = g.n
    val inOff   = g.inOff
    val inAdj   = g.inAdj
    val residue = init.clone()
    val est     = new Array[Double](n)
    val inQueue = new Array[Boolean](n)
    val queue   = new NodeQueue(n)
    var v = 0
    while (v < n) {
      if (residue(v) > rbmax) { queue.add(v); inQueue(v) = true }
      v += 1
    }
    var pushes = 0L
    while (!queue.isEmpty) {
      val vk = queue.poll(deadline); inQueue(vk) = false
      val r  = residue(vk)
      if (r > rbmax) {
        est(vk) += alpha * r
        residue(vk) = 0.0
        val spread = (1.0 - alpha) * r
        var e = inOff(vk)
        val end = inOff(vk + 1)
        while (e < end) {
          val u = inAdj(e)
          residue(u) += spread / g.outDeg(u)
          if (!inQueue(u) && residue(u) > rbmax) { queue.add(u); inQueue(u) = true }
          e += 1
        }
        pushes += g.inDeg(vk)
      }
    }
    var rsum = 0.0
    var i = 0
    while (i < n) { rsum += residue(i); i += 1 }
    PushResult(est, residue, rsum, pushes)
  }

  /** Single-target run: estimates approximate π(·, t). */
  def toTarget(g: LocalGraph, target: Int, alpha: Double, rbmax: Double,
               deadline: Deadline = Deadline.none): PushResult = {
    val init = new Array[Double](g.n)
    init(target) = 1.0
    push(g, init, alpha, rbmax, deadline)
  }
}
