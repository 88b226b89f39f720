package repro.viz

import java.util.Random
import repro.core.{FanOut, Gbp, SuperQuery, TauPush, TauPushResult}
import repro.graph.LocalGraph
import repro.hierarchy.Hierarchy
import repro.layout.StressMajorization
import repro.ppr.{Deadline, Dpr}

/** The PPRviz preprocessing output (Fig. 7 left): supergraph hierarchy,
  * leaf DPR vector, and precomputed GBP results for every supernode (at any
  * level) whose DPR exceeds τ = 1/√(k·n).
  *
  * GBP from a target V_j is query independent in its propagation, and V_j
  * appears as a child of exactly one query — its parent's — so the k
  * aggregated estimates π̂_d(V_i, V_j) w.r.t. its siblings can be stored
  * offline. That is the O(k·√(kn)) index of §4.3: `gbpAgg((level, id))(i)`
  * is the estimate for the i-th child of `id`'s parent query.
  */
final class PprVizIndex(
    val hier: Hierarchy,
    val leafDpr: Array[Double],
    val gbpAgg: Map[(Int, Int), Array[Double]],
    val hierSeconds: Double,
    val dprSeconds: Double,
    val gbpSeconds: Double,
) {
  def sizeBytes: Long =
    hier.sizeBytes + 8L * leafDpr.length +
      gbpAgg.valuesIterator.map(a => 8L * a.length + 32L).sum

  def preprocessSeconds: Double = hierSeconds + dprSeconds + gbpSeconds
}

/** PPRviz (§5): preprocessing (Louvain+ hierarchy, DPR index, GBP results)
  * and interactive visualization (Tau-Push PDist matrix + stress
  * majorization).
  */
object PPRviz {

  val DefaultAlpha = 0.2
  val DefaultEps: Double = 1.0 - 1.0 / math.E

  /** Per-target cap on the GBP index's pushed edges. A target that reaches
    * it fails preprocessing, so it sits well above the largest target
    * measured on the stand-ins (about 34M on Twitter-lite at k = 100).
    */
  val DefaultGbpOpBudget = 100_000_000L

  /** δ = 1/(10k) as in §7.1. */
  def delta(k: Int): Double = 1.0 / (10.0 * k)

  def timeSec[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  def preprocess(g: LocalGraph, k: Int, alpha: Double = DefaultAlpha,
                 eps: Double = DefaultEps,
                 gbpOpBudget: Long = DefaultGbpOpBudget): PprVizIndex = {
    val (hier, tHier) = timeSec(Hierarchy.build(g, k))
    val (dpr, tDpr)   = timeSec(Dpr.vector(g, alpha))
    val (agg, tGbp)   = timeSec(buildGbpAggregates(g, hier, dpr, k, alpha, eps, gbpOpBudget))
    new PprVizIndex(hier, dpr, agg, tHier, tDpr, tGbp)
  }

  /** Precompute GBP results for every supernode with DPR above the filter
    * threshold, aggregated against its parent's query (the only query it can
    * appear in as a child). r^b_max follows Eq. 6 for that query.
    * `opBudget` caps per-target work: a target whose run it stops before
    * convergence fails the build with an `IllegalStateException` naming the
    * target, rather than store a truncated aggregate. The per-target GBP
    * runs are independent and run in parallel on all cores; the aggregates
    * are the same as a sequential loop's.
    */
  def buildGbpAggregates(g: LocalGraph, hier: Hierarchy, leafDpr: Array[Double],
                         k: Int, alpha: Double, eps: Double,
                         opBudget: Long): Map[(Int, Int), Array[Double]] = {
    val tau = 1.0 / math.sqrt(k.toDouble * g.n)
    val del = delta(k)
    // One entry per target: its key, its leaves, its parent's query and that
    // query's r^b_max. Targets are grouped by parent so each parent query is
    // built once. The stored array is indexed in the child order
    // `queryWithIds` yields, which is what the lookup in `queryPDist` reads.
    val targets = (0 to hier.nLevels).flatMap { level =>
      val sets = hier.leafSets(level)
      (0 until sets.length)
        .filter(id => Dpr.ofSupernode(leafDpr, sets(id)) > tau)
        .groupBy(id => if (level == hier.nLevels) -1 else hier.parents(level)(id))
        .toSeq
        .flatMap { case (parent, ids) =>
          val (q, _) = queryWithIds(hier, level + 1, parent)
          val rbmax  = eps * del / (0 until q.k).map(q.avgDeg(_, g.outDeg)).max
          ids.map(id => ((level, id), sets(id), q, rbmax))
        }
    }
    val aggs = new Array[Array[Double]](targets.length)
    FanOut.foreach(targets.length) { t =>
      val ((level, id), leaves, q, rbmax) = targets(t)
      val run = Gbp.creditsWithOutcome(g, leaves, alpha, rbmax, Deadline.none, opBudget)
      if (!run.outcome.converged)
        throw new IllegalStateException(s"GBP index: target (level $level, id $id) " +
          s"stopped at the op budget before converging (${run.outcome.pushes} pushes, " +
          s"budget $opBudget); its estimates would not meet the (eps,delta) guarantee, " +
          "so raise the budget")
      aggs(t) = Gbp.aggregate(q, run.credit)
    }
    targets.iterator.map(_._1).zip(aggs).toMap
  }

  /** Children + their level-(ℓ-1) ids for a selected supernode; id = -1
    * addresses the virtual root (coarsest supergraph).
    */
  def queryWithIds(hier: Hierarchy, level: Int, id: Int): (SuperQuery, Array[Int]) =
    if (id == -1) {
      val top = hier.levelSize(hier.nLevels)
      (hier.rootQuery, Array.tabulate(top)(identity))
    } else {
      val cs = hier.childrenOf(level, id)
      (SuperQuery(hier.g.n, cs.map(c => hier.leafSets(level - 1)(c))), cs)
    }

  /** Interactive PDist-matrix computation for a selected supernode, using the
    * precomputed DPR/GBP index (Fig. 7c).
    */
  def queryPDist(g: LocalGraph, index: PprVizIndex, level: Int, id: Int,
                 k: Int, alpha: Double = DefaultAlpha, eps: Double = DefaultEps,
                 deadline: Deadline = Deadline.none): TauPushResult = {
    val (q, ids) = queryWithIds(index.hier, level, id)
    val lookup: Int => Option[Array[Double]] =
      j => index.gbpAgg.get((level - 1, ids(j)))
    TauPush.run(g, q, index.leafDpr, alpha, eps, delta(k), TauPush.Standard,
      deadline, lookup)
  }

  /** Full interactive visualization: PDist matrix + stress majorization. */
  def visualize(g: LocalGraph, index: PprVizIndex, level: Int, id: Int, k: Int,
                alpha: Double = DefaultAlpha, eps: Double = DefaultEps,
                deadline: Deadline = Deadline.none,
                layoutSeed: Long = 7): Array[Array[Double]] = {
    val res = queryPDist(g, index, level, id, k, alpha, eps, deadline)
    StressMajorization.layout(res.pdist, layoutSeed)
  }

  /** Average response time (seconds) over `paths` random zoom-in paths —
    * the §7.1 response-time protocol.
    */
  def responseTime(g: LocalGraph, index: PprVizIndex, k: Int, paths: Int,
                   seed: Long, deadline: Deadline = Deadline.none): Double = {
    val rnd = new Random(seed)
    var total = 0.0
    var count = 0
    (0 until paths).foreach { _ =>
      index.hier.randomZoomPath(rnd).foreach { case (level, id) =>
        val (_, t) = timeSec(visualize(g, index, level, id, k, deadline = deadline))
        total += t
        count += 1
      }
    }
    total / count
  }
}
