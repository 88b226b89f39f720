package repro.perfbench

import java.io.PrintWriter
import scala.collection.mutable.ArrayBuffer
import repro.core.{Gbp, Gfp, PDist}
import repro.graph.LocalGraph
import repro.hierarchy.{Hierarchy, Louvain, WGraph}
import repro.layout.StressMajorization
import repro.ppr.{Deadline, Dpr}
import repro.viz.{PPRviz, PprVizIndex}

/** In-memory span recorder. A span has a name, start and end (ns), the span
  * open when it started, and the id of the query it belongs to (-1 during
  * set-up).
  */
final class Tracer {

  final case class Span(name: String, parent: Int, query: Int, start: Long, end: Long) {
    def ms: Double = (end - start) / 1e6
  }

  val spans = ArrayBuffer.empty[Span]
  var query = -1
  private var open = -1

  def apply[A](name: String)(body: => A): A = {
    val id = spans.length
    spans += null
    val parent = open
    open = id
    val t0 = System.nanoTime()
    try body
    finally {
      spans(id) = Span(name, parent, query, t0, System.nanoTime())
      open = parent
    }
  }

  /** Durations (ms) of the spans with this name, in start order. */
  def ms(name: String): Seq[Double] = spans.iterator.filter(_.name == name).map(_.ms).toSeq

  /** Per query, the summed duration (ms) of its spans with this name. */
  def perQueryMs(name: String, queries: Int): Seq[Double] = {
    val sum = new Array[Double](queries)
    spans.foreach(s => if (s.name == name && s.query >= 0) sum(s.query) += s.ms)
    sum.toSeq
  }

  /** Self time per span name: duration minus the time its child spans
    * cover. Returns (name, count, total ms, self ms) in first-seen order.
    */
  def selfTimes: Seq[(String, Int, Double, Double)] = {
    val childMs = new Array[Double](spans.length)
    spans.foreach(s => if (s.parent >= 0) childMs(s.parent) += s.ms)
    val names = spans.map(_.name).distinct
    names.map { nm =>
      val idx = spans.indices.filter(spans(_).name == nm)
      (nm, idx.length, idx.map(spans(_).ms).sum, idx.map(i => spans(i).ms - childMs(i)).sum)
    }.toSeq
  }

  def write(path: String): Unit = {
    val f = new java.io.File(path)
    Option(f.getParentFile).foreach(_.mkdirs())
    val out = new PrintWriter(f)
    try {
      out.println("id\tname\tparent\tquery\tstart_ns\tend_ns")
      spans.zipWithIndex.foreach { case (s, i) =>
        out.println(s"$i\t${s.name}\t${s.parent}\t${s.query}\t${s.start}\t${s.end}")
      }
    } finally out.close()
  }
}

/** The traced run. It times each layer from outside by calling the public
  * pieces of `PPRviz.preprocess`, `Hierarchy.build`,
  * `PPRviz.buildGbpAggregates` and `TauPush.run` in the order those
  * functions call them, with the same parameters, and checks that the
  * results are bit-identical to the wrapped calls on the same input.
  */
object Traced {
  import Bench._

  /** `PPRviz.preprocess`'s default per-target GBP op budget. */
  val GbpOpBudget = 30_000_000L

  private val Alpha = PPRviz.DefaultAlpha
  private val Eps   = PPRviz.DefaultEps

  final case class SetupStats(levels: Int, forceMerges: Int, modularityL0: Double,
                              gbpPushes: Seq[Long])

  /** Modularity of an assignment on a weighted graph. */
  def modularity(wg: WGraph, assign: Array[Int]): Double = {
    val nC  = assign.max + 1
    val in  = new Array[Double](nC)
    val tot = new Array[Double](nC)
    var v = 0
    while (v < wg.n) {
      val c = assign(v)
      tot(c) += wg.deg(v)
      in(c) += 2.0 * wg.self(v)
      wg.adj(v).foreach { case (u, w) => if (assign(u) == c) in(c) += w }
      v += 1
    }
    (0 until nC).map(c => in(c) / wg.twoW - math.pow(tot(c) / wg.twoW, 2)).sum
  }

  /** `Hierarchy.build`, piece by piece. */
  def hierarchy(t: Tracer, g: LocalGraph, k: Int): (Hierarchy, Int, Double) = {
    var forceMerges = 0
    var level0: (WGraph, Array[Int]) = null
    val hier = t("hierarchy.build") {
      var wg      = t("hierarchy.wgraph")(WGraph.fromLocal(g))
      val parents = ArrayBuffer.empty[Array[Int]]
      var guard   = 0
      while (wg.n > k && guard < 64) {
        val pass   = if (parents.isEmpty) "hierarchy.pass0" else "hierarchy.pass_rest"
        var assign = t(pass)(Louvain.pass(wg, k))
        if (assign.max + 1 == wg.n) {
          assign = t(pass)(Louvain.forceMerge(wg, k))
          forceMerges += 1
        }
        if (parents.isEmpty) level0 = (wg, assign)
        parents += assign
        wg = t("hierarchy.aggregate")(Louvain.aggregate(wg, assign))
        guard += 1
      }
      require(wg.n <= k, s"Louvain+ failed to coarsen below k=$k (stuck at ${wg.n})")
      new Hierarchy(g, parents.toArray)
    }
    val q0 = if (level0 == null) Double.NaN else modularity(level0._1, level0._2)
    (hier, forceMerges, q0)
  }

  /** `PPRviz.buildGbpAggregates`, piece by piece; also returns the pushes of
    * each target.
    */
  def gbpIndex(t: Tracer, g: LocalGraph, hier: Hierarchy, leafDpr: Array[Double],
               k: Int): (Map[(Int, Int), Array[Double]], Seq[Long]) = {
    val tau    = 1.0 / math.sqrt(k.toDouble * g.n)
    val del    = PPRviz.delta(k)
    val out    = Map.newBuilder[(Int, Int), Array[Double]]
    val pushes = ArrayBuffer.empty[Long]
    t("hierarchy.leafsets")(hier.leafSets)
    (0 to hier.nLevels).foreach { level =>
      val sets = hier.leafSets(level)
      val byParent = (0 until sets.length)
        .filter(id => Dpr.ofSupernode(leafDpr, sets(id)) > tau)
        .groupBy(id => if (level == hier.nLevels) -1 else hier.parents(level)(id))
      byParent.foreach { case (parent, targets) =>
        val (q, _) =
          if (parent == -1) PPRviz.queryWithIds(hier, hier.nLevels + 1, -1)
          else PPRviz.queryWithIds(hier, level + 1, parent)
        val maxAvgDeg = (0 until q.k).map(q.avgDeg(_, g.outDeg)).max
        val rbmax     = Eps * del / maxAvgDeg
        targets.foreach { id =>
          t("viz.gbp_target") {
            val (credit, p) = Gbp.credits(g, sets(id), Alpha, rbmax, Deadline.none, GbpOpBudget)
            pushes += p
            out += ((level, id) -> Gbp.aggregate(q, credit))
          }
        }
      }
    }
    (out.result(), pushes.toSeq)
  }

  /** `PPRviz.preprocess`, piece by piece. */
  def setup(t: Tracer, g: LocalGraph, k: Int): (PprVizIndex, SetupStats) = {
    var stats: SetupStats = null
    val index = t("setup") {
      val (hier, forceMerges, q0) = hierarchy(t, g, k)
      val dpr                     = t("ppr.dpr")(Dpr.vector(g, Alpha))
      val (agg, pushes)           = t("viz.gbp_index")(gbpIndex(t, g, hier, dpr, k))
      stats = SetupStats(hier.nLevels, forceMerges, q0, pushes)
      new PprVizIndex(hier, dpr, agg, 0.0, 0.0, 0.0)
    }
    (index, stats)
  }

  final case class QueryStats(dppr: Array[Array[Double]], pushes: Long, gfpPushes: Long,
                              gbpHits: Int, gbpLive: Int, stress: Double)

  /** `PPRviz.queryPDist` + `StressMajorization.layout` (what
    * `PPRviz.visualize` does), with `TauPush.run` in Standard mode piece by
    * piece.
    */
  def query(t: Tracer, g: LocalGraph, index: PprVizIndex, k: Int, sq: Query): QueryStats = {
    var gfpPushes = 0L
    var livePushes = 0L
    var hits = 0
    var live = 0
    val (dppr, pdist, xy) = t("query") {
      val deadline = Deadline.in(DeadlineSeconds)
      val (q, ids) = t("core.construct")(PPRviz.queryWithIds(index.hier, sq.level, sq.id))
      val (dppr, pdist) = t("core.taupush") {
        val kk = q.k
        val n  = g.n
        val tauJ = Array.tabulate(kk) { j =>
          var s = 0.0
          q.children(j).foreach(v => s += index.leafDpr(v))
          s / q.size(j)
        }
        val tau      = 1.0 / math.sqrt(kk.toDouble * n)
        val covered  = tauJ.filter(_ <= tau)
        val tauCover = if (covered.isEmpty || covered.max <= 0.0) tau else covered.max
        val delta    = PPRviz.delta(k)
        val rmax     = Eps * delta / (g.m.toDouble * tauCover)
        val dppr     = new Array[Array[Double]](kk)
        (0 until kk).foreach { i =>
          val r = t("core.gfp")(Gfp.run(g, q, i, Alpha, rmax, deadline))
          dppr(i) = r.est
          gfpPushes += r.pushes
        }
        t("core.gbp") {
          val maxAvgDeg = (0 until kk).map(q.avgDeg(_, g.outDeg)).max
          val rbmax     = Eps * delta / maxAvgDeg
          (0 until kk).foreach { j =>
            if (tauJ(j) > tau) {
              val refined = index.gbpAgg.get((sq.level - 1, ids(j))) match {
                case Some(a) => hits += 1; a
                case None =>
                  live += 1
                  t("core.gbp_live") {
                    val (c, p) = Gbp.credits(g, q.children(j), Alpha, rbmax, deadline)
                    livePushes += p
                    Gbp.aggregate(q, c)
                  }
              }
              (0 until kk).foreach(s => if (s != j) dppr(s)(j) = refined(s))
            }
          }
        }
        (dppr, t("core.pdist")(PDist.matrix(dppr, n)))
      }
      (dppr, pdist, t("layout.stress")(StressMajorization.layout(pdist, LayoutSeed)))
    }
    QueryStats(dppr, gfpPushes + livePushes, gfpPushes, hits, live,
      StressMajorization.stress(xy, pdist))
  }

  def run(w: Workload, n: Int, seed: Long, traceOut: String): Boolean = {
    val g = graph(n)
    val problems = ArrayBuffer.empty[String]

    // The wrapped call runs first, so the traced set-up runs as warm as the
    // median set-up of the timed run.
    val ref = PPRviz.preprocess(g, w.k)
    System.gc()
    val t = new Tracer
    val (index, st) = setup(t, g, w.k)
    if (!java.util.Arrays.deepEquals(
          index.hier.parents.asInstanceOf[Array[AnyRef]], ref.hier.parents.asInstanceOf[Array[AnyRef]]))
      problems += "hierarchy parents differ from Hierarchy.build"
    if (!java.util.Arrays.equals(index.leafDpr, ref.leafDpr)) problems += "DPR differs from Dpr.vector"
    if (index.gbpAgg.keySet != ref.gbpAgg.keySet ||
        index.gbpAgg.exists { case (key, a) => !java.util.Arrays.equals(a, ref.gbpAgg(key)) })
      problems += "GBP aggregates differ from PPRviz.buildGbpAggregates"

    if (!warmUp(g, index, w, seed)) problems += "serve() differs from PPRviz.visualize"
    val queries =
      if (w.hub) hubStream(Seq((g, index)), seed).map(_._3)
      else zoomStream(index.hier, seed).take(w.tracePaths).flatten.toSeq
    require(queries.nonEmpty, "workload has no queries")

    val stats = ArrayBuffer.empty[QueryStats]
    val checked = scala.collection.mutable.Set.empty[Query]
    queries.zipWithIndex.foreach { case (q, qi) =>
      t.query = qi
      val s = query(t, g, index, w.k, q)
      t.query = -1
      stats += s
      // Each distinct query is checked once against the wrapped call.
      if (checked.add(q)) {
        val res = PPRviz.queryPDist(g, index, q.level, q.id, w.k)
        if (!sameMatrix(res.dppr, s.dppr) || res.pushes != s.pushes)
          problems += s"query $q: DPPR differs from TauPush.run"
      }
    }
    t.write(traceOut)

    val nq     = queries.length
    val tailP  = math.min(w.tailPct.toDouble, (90 to 50 by -5).find(p => beyond(nq, p) >= 10).getOrElse(50).toDouble)
    val qms    = t.perQueryMs("query", nq)
    val gfpMs  = t.perQueryMs("core.gfp", nq)
    val gfpPushes = stats.map(_.gfpPushes).sum
    val targetS   = t.ms("viz.gbp_target").map(_ / 1e3)
    def seconds(name: String): Double = t.ms(name).sum / 1e3
    def p(xs: Seq[Double], pct: Double): Double = if (xs.isEmpty) 0.0 else percentile(xs, pct)

    println(f"traced queries: $nq, tail is p${tailP}%.0f; spans written to $traceOut")
    println("self time per layer (ms):")
    t.selfTimes.foreach { case (name, count, total, self) =>
      println(f"  $name%-22s $count%8d spans  total $total%12.3f  self $self%12.3f")
    }
    problems.take(5).foreach(pr => println(s"CHECK FAILED: $pr"))

    println(resultJson(problems.isEmpty, nq, 0, Seq(
      ("hierarchy.build_s", seconds("hierarchy.build"), "s"),
      ("hierarchy.wgraph_s", seconds("hierarchy.wgraph"), "s"),
      ("hierarchy.pass0_s", seconds("hierarchy.pass0"), "s"),
      ("hierarchy.pass_rest_s", seconds("hierarchy.pass_rest"), "s"),
      ("hierarchy.aggregate_s", seconds("hierarchy.aggregate"), "s"),
      ("hierarchy.leafsets_s", seconds("hierarchy.leafsets"), "s"),
      ("hierarchy.levels", st.levels.toDouble, "count"),
      ("hierarchy.force_merges", st.forceMerges.toDouble, "count"),
      ("hierarchy.modularity_l0", st.modularityL0, "ratio"),
      ("ppr.dpr_s", seconds("ppr.dpr"), "s"),
      ("viz.gbp_index_s", seconds("viz.gbp_index"), "s"),
      ("viz.gbp_targets", st.gbpPushes.length.toDouble, "count"),
      ("viz.gbp_target_p50_s", p(targetS, 50), "s"),
      ("viz.gbp_target_max_s", if (targetS.isEmpty) 0.0 else targetS.max, "s"),
      ("viz.gbp_pushes", st.gbpPushes.sum.toDouble, "count"),
      ("viz.gbp_budget_use_max",
        if (st.gbpPushes.isEmpty) 0.0 else st.gbpPushes.max.toDouble / GbpOpBudget, "ratio"),
      ("viz.gbp_truncated", st.gbpPushes.count(_ >= GbpOpBudget).toDouble, "count"),
      ("core.construct_ms_p50", p(t.perQueryMs("core.construct", nq), 50), "ms"),
      ("core.construct_ms_tail", p(t.perQueryMs("core.construct", nq), tailP), "ms"),
      ("core.taupush_ms_p50", p(t.perQueryMs("core.taupush", nq), 50), "ms"),
      ("core.taupush_ms_tail", p(t.perQueryMs("core.taupush", nq), tailP), "ms"),
      ("core.gfp_ms_p50", p(gfpMs, 50), "ms"),
      ("core.gfp_ms_tail", p(gfpMs, tailP), "ms"),
      ("core.gfp_pushes", gfpPushes.toDouble, "count"),
      ("core.gfp_push_rate_mps", gfpPushes / (gfpMs.sum / 1e3) / 1e6, "Mpush/s"),
      ("core.gbp_index_hits", stats.map(_.gbpHits).sum.toDouble, "count"),
      ("core.gbp_live", stats.map(_.gbpLive).sum.toDouble, "count"),
      ("core.gbp_ms_p50", p(t.perQueryMs("core.gbp", nq), 50), "ms"),
      ("core.pdist_ms_p50", p(t.perQueryMs("core.pdist", nq), 50), "ms"),
      ("layout.stress_ms_p50", p(t.perQueryMs("layout.stress", nq), 50), "ms"),
      ("layout.stress_ms_tail", p(t.perQueryMs("layout.stress", nq), tailP), "ms"),
      ("layout.stress_final", stats.map(_.stress).sum / nq, "stress"),
      ("traced.setup_s", seconds("setup"), "s"),
      ("traced.query_p50_ms", p(qms, 50), "ms"),
      ("traced.query_tail_ms", p(qms, tailP), "ms"),
      ("traced.queries_per_s", nq / (qms.sum / 1e3), "1/s"),
    )))
    problems.isEmpty
  }
}
