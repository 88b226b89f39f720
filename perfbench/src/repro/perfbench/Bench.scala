package repro.perfbench

import java.util.Random
import scala.collection.mutable.ArrayBuffer
import repro.core.{Dppr, TauPushResult}
import repro.graph.{GraphGen, LocalGraph}
import repro.hierarchy.Hierarchy
import repro.layout.StressMajorization
import repro.ppr.Deadline
import repro.viz.{PPRviz, PprVizIndex}

/** A benchmark workload: the hierarchy fan-out k, which queries are sent,
  * the percentile reported as the tail, and how many zoom paths the warm-up
  * and the traced run take. The tail is the highest percentile that keeps at
  * least ten samples beyond it at the query count the workload reaches in a
  * run; it is fixed per workload so that it does not switch between runs
  * whose counts differ by a few queries.
  */
final case class Workload(name: String, k: Int, hub: Boolean, tailPct: Int,
                          warmupPaths: Int, tracePaths: Int)

object Workload {

  val All: Seq[Workload] = Seq(
    Workload("zoom-k25", 25, hub = false, tailPct = 90, warmupPaths = 20, tracePaths = 40),
    Workload("zoom-k100", 100, hub = false, tailPct = 75, warmupPaths = 2, tracePaths = 8),
    Workload("hub-k25", 25, hub = true, tailPct = 90, warmupPaths = 20, tracePaths = 0),
  )

  def named(name: String): Workload =
    All.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(
        s"unknown workload '$name' (expected one of ${All.map(_.name).mkString(", ")})"))
}

/** A query address as `PPRviz` takes it: the selected supernode whose
  * children are laid out; `id = -1` is the virtual root.
  */
final case class Query(level: Int, id: Int)

/** Inputs, the serving call and the output checks shared by the timed and
  * the traced run.
  */
object Bench {

  /** `GraphGen.twitterLite`'s seed. */
  val StandInSeed = 26L

  /** The hub workload also sends the hub queries of the stand-in's sibling
    * (seed 27): one graph has only about 50, too few to hold the median
    * steady.
    */
  val HubGraphSeeds = Seq(StandInSeed, StandInSeed + 1)

  /** The Twitter stand-in's generator (`GraphGen.twitterLite`) at size `n`.
    * The graphs are fixed and the run's seed draws the queries: with the
    * graph seeded too, the hierarchy at n = 10K has 4 levels for some seeds
    * and 5 for others, which changes the zoom query mix, and the hub queries
    * of one graph cost up to a third more than another's.
    */
  def graph(n: Int, seed: Long = StandInSeed): LocalGraph = {
    println(s"graph: hubHeavy(n = $n, mPerNode = 10, nHubs = 50, extraPerNode = 5, seed = $seed)")
    GraphGen.hubHeavy(n, 10, 50, 5, seed)
  }

  /** The scaled Table 8 response deadline. */
  val DeadlineSeconds = 20.0

  /** `PPRviz.visualize`'s default layout seed. */
  val LayoutSeed = 7L

  /** Warm-up paths are drawn from `seed ^ WarmupSalt`, a stream separate
    * from the timed one.
    */
  val WarmupSalt = 0x5DEECE66DL

  /** Seeded random zoom-in paths (§7.1), one after another. Each starts at
    * the root and picks one child per level down to level 1, as
    * `Hierarchy.randomZoomPath` does, but the picks are stratified: each
    * supernode deals its children in a seeded random order and reshuffles
    * once all have been dealt. A child is as likely as under
    * `randomZoomPath`, and over a run the children of a supernode are picked
    * equally often, within one. With independent picks the share of costly
    * queries changed from seed to seed, and so did the tail.
    */
  def zoomStream(hier: Hierarchy, seed: Long): Iterator[Seq[Query]] = {
    val rnd   = new Random(seed)
    val decks = scala.collection.mutable.HashMap.empty[Query, (Array[Int], Int)]
    def deal(q: Query): Int = {
      val (deck, dealt) = decks.getOrElseUpdate(q, {
        val cs = if (q.id == -1) Array.range(0, hier.levelSize(hier.nLevels))
                 else hier.childrenOf(q.level, q.id).clone()
        (cs, cs.length)
      })
      val at = if (dealt < deck.length) dealt else { shuffle(deck, rnd); 0 }
      decks(q) = (deck, at + 1)
      deck(at)
    }
    Iterator.continually {
      val path = ArrayBuffer(Query(hier.nLevels + 1, -1))
      while (path.last.level > 1) path += Query(path.last.level - 1, deal(path.last))
      path.toSeq
    }
  }

  /** Fisher–Yates shuffle in place. */
  private def shuffle(xs: Array[Int], rnd: Random): Unit = {
    var i = xs.length - 1
    while (i > 0) {
      val j = rnd.nextInt(i + 1)
      val t = xs(i); xs(i) = xs(j); xs(j) = t
      i -= 1
    }
  }

  /** The parent query of every GBP-indexed supernode, once each, in the
    * (level, id) order of the indexed supernodes. These are the only queries
    * that read the GBP index.
    */
  def hubQueries(index: PprVizIndex): Seq[Query] = {
    val h = index.hier
    index.gbpAgg.keys.toSeq.sorted.map { case (level, id) =>
      if (level == h.nLevels) Query(level + 1, -1) else Query(level + 1, h.parents(level)(id))
    }.distinct
  }

  /** The [[hubQueries]] of each graph, in an order drawn from the seed. */
  def hubStream(graphs: Seq[(LocalGraph, PprVizIndex)],
                seed: Long): Seq[(LocalGraph, PprVizIndex, Query)] =
    new scala.util.Random(seed).shuffle(
      graphs.flatMap { case (g, index) => hubQueries(index).map((g, index, _)) })

  def childCount(hier: Hierarchy, q: Query): Int =
    if (q.id == -1) hier.levelSize(hier.nLevels) else hier.childrenOf(q.level, q.id).length

  /** One interactive query: `PPRviz.visualize` is exactly `queryPDist`
    * followed by `StressMajorization.layout` of its PDist. The benchmark
    * makes the two calls itself so it can check the PDist of every timed
    * query without running the query twice; [[sameAsVisualize]] guards the
    * equivalence.
    */
  def serve(g: LocalGraph, index: PprVizIndex, k: Int, q: Query): (TauPushResult, Array[Array[Double]]) = {
    val res = PPRviz.queryPDist(g, index, q.level, q.id, k, deadline = Deadline.in(DeadlineSeconds))
    (res, StressMajorization.layout(res.pdist, LayoutSeed))
  }

  def sameAsVisualize(g: LocalGraph, index: PprVizIndex, k: Int, q: Query,
                      xy: Array[Array[Double]]): Boolean =
    sameMatrix(PPRviz.visualize(g, index, q.level, q.id, k, layoutSeed = LayoutSeed), xy)

  /** Bit-for-bit equality of two matrices. */
  def sameMatrix(a: Array[Array[Double]], b: Array[Array[Double]]): Boolean =
    a.length == b.length && a.indices.forall(i => java.util.Arrays.equals(a(i), b(i)))

  /** Output checks of one answer: the PDist is k×k, symmetric, finite, 0 on
    * the diagonal and in [2, 2·ln n] elsewhere; the layout is finite with
    * shape k×2; k is the child count in the hierarchy. Returns the first
    * violation found.
    */
  def checkAnswer(n: Int, kExpected: Int, pdist: Array[Array[Double]],
                  xy: Array[Array[Double]]): Option[String] = {
    val hi = 2.0 * math.log(n)
    if (pdist.length != kExpected || pdist.exists(_.length != kExpected))
      return Some(s"PDist is not $kExpected x $kExpected")
    if (xy.length != kExpected || xy.exists(_.length != 2))
      return Some(s"layout is not $kExpected x 2")
    if (xy.exists(_.exists(v => v.isNaN || v.isInfinite))) return Some("layout is not finite")
    var i = 0
    while (i < kExpected) {
      if (pdist(i)(i) != 0.0) return Some(s"PDist($i,$i) = ${pdist(i)(i)}")
      var j = 0
      while (j < kExpected) {
        val d = pdist(i)(j)
        if (d != pdist(j)(i)) return Some(s"PDist not symmetric at ($i,$j)")
        if (i != j && !(d >= 2.0 && d <= hi)) return Some(s"PDist($i,$j) = $d outside [2, $hi]")
        j += 1
      }
      i += 1
    }
    None
  }

  /** DPPR pairs outside the (ε,δ) envelope of Def. 3.5 against
    * `Dppr.exactMatrix`: |π̂−π| ≤ ε·π if π ≥ δ, else ε·δ (the rule
    * `TauPushSpec` uses). Returns (violations, pairs checked).
    */
  def envelope(g: LocalGraph, index: PprVizIndex, k: Int, q: Query): (Int, Int) = {
    val (sq, _) = PPRviz.queryWithIds(index.hier, q.level, q.id)
    val est     = PPRviz.queryPDist(g, index, q.level, q.id, k).dppr
    val exact   = Dppr.exactMatrix(g, sq, PPRviz.DefaultAlpha)
    val eps     = PPRviz.DefaultEps
    val delta   = PPRviz.delta(k)
    var bad = 0
    var pairs = 0
    for (i <- 0 until sq.k; j <- 0 until sq.k if i != j) {
      val ex    = exact(i)(j)
      val bound = if (ex < delta) eps * delta else eps * ex
      if (!(math.abs(est(i)(j) - ex) <= bound + 1e-9)) bad += 1
      pairs += 1
    }
    (bad, pairs)
  }

  /** The fixed envelope sample: the root query and the first hub query. */
  def envelopeSample(index: PprVizIndex): Seq[Query] =
    (Query(index.hier.nLevels + 1, -1) +: hubQueries(index).take(1)).distinct

  /** Linear-interpolation percentile of unsorted samples. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    val s   = xs.sorted
    val pos = p / 100.0 * (s.length - 1)
    val lo  = pos.toInt
    val hi  = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  /** Samples strictly beyond the p-th percentile's position. */
  def beyond(count: Int, p: Double): Int = count - 1 - (p / 100.0 * (count - 1)).toInt

  /** Runs the workload's warm-up zoom paths. The first path also checks
    * that [[serve]] equals `PPRviz.visualize`. Returns false if that check
    * fails.
    */
  def warmUp(g: LocalGraph, index: PprVizIndex, w: Workload, seed: Long): Boolean = {
    val paths = zoomStream(index.hier, seed ^ WarmupSalt).take(w.warmupPaths).zipWithIndex
    paths.forall { case (path, i) =>
      path.forall { q =>
        val (_, xy) = serve(g, index, w.k, q)
        i > 0 || sameAsVisualize(g, index, w.k, q, xy)
      }
    }
  }

  def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** The last output line: the result object the runner reads. */
  def resultJson(correct: Boolean, attempted: Int, failed: Int,
                 metrics: Seq[(String, Double, String)]): String = {
    val ms = metrics.map { case (name, v, unit) =>
      require(!v.isNaN && !v.isInfinite, s"metric $name = $v")
      s""""$name": {"value": $v, "unit": "$unit"}"""
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}

/** The timed run: set up several times, then a single-client closed loop of
  * queries for the given number of seconds, with every answer checked.
  */
object Timed {
  import Bench._

  val SetupRepeats = 3

  def run(w: Workload, n: Int, seed: Long, seconds: Double): Boolean = {
    val g = graph(n)

    // Each set-up starts from a collected heap; the first runs in a cold JVM.
    var index: PprVizIndex = null
    val setups = (1 to SetupRepeats).map { _ =>
      index = null
      System.gc()
      val t0 = System.nanoTime()
      index = PPRviz.preprocess(g, w.k)
      secondsSince(t0)
    }
    System.gc()
    val rt     = Runtime.getRuntime
    val heapMb = (rt.totalMemory() - rt.freeMemory()) / (1024.0 * 1024.0)
    println(f"setup: ${setups.map(s => f"$s%.3f").mkString(", ")} s; levels ${index.hier.nLevels}, " +
      s"GBP targets ${index.gbpAgg.size}")

    val queries: Iterator[(LocalGraph, PprVizIndex, Query)] =
      if (w.hub) {
        val siblings = HubGraphSeeds.tail.map { s =>
          val gs = graph(n, s)
          (gs, PPRviz.preprocess(gs, w.k))
        }
        hubStream((g, index) +: siblings, seed).iterator
      } else zoomStream(index.hier, seed).flatten.map((g, index, _))
    require(queries.hasNext, "workload has no queries")
    val driftOk = warmUp(g, index, w, seed)

    val lat      = ArrayBuffer.empty[Double]
    var failed   = 0
    val problems = ArrayBuffer.empty[String]
    val t0  = System.nanoTime()
    val end = t0 + (seconds * 1e9).toLong
    while (queries.hasNext && System.nanoTime() < end) {
      val (gq, iq, q) = queries.next()
      val q0 = System.nanoTime()
      val outcome =
        try {
          val (res, xy) = serve(gq, iq, w.k, q)
          val ms = (System.nanoTime() - q0) / 1e6
          checkAnswer(gq.n, childCount(iq.hier, q), res.pdist, xy).map((_, ms)).toLeft(ms)
        } catch {
          case e: Exception => Left((e.toString, (System.nanoTime() - q0) / 1e6))
        }
      outcome match {
        case Right(ms) => lat += ms
        case Left((why, ms)) =>
          // A failed query misses every latency limit.
          failed += 1
          lat += math.max(ms, DeadlineSeconds * 1e3)
          if (problems.length < 5) problems += s"query $q: $why"
      }
    }
    val wall = secondsSince(t0)

    val sample    = envelopeSample(index)
    val env       = sample.map(envelope(g, index, w.k, _))
    val envBad    = env.map(_._1).sum
    val envPairs  = env.map(_._2).sum

    val attempted = lat.length
    val tailP     = w.tailPct.toDouble
    println(s"queries: $attempted timed in ${"%.3f".format(wall)} s, $failed failed; " +
      s"tail is p${w.tailPct} with ${beyond(attempted, tailP)} samples beyond")
    println(s"failed_share = ${failed.toDouble / attempted}; envelope_violations = $envBad " +
      s"of $envPairs pairs over ${sample.mkString(", ")}")
    if (!driftOk) println("CHECK FAILED: serve() differs from PPRviz.visualize")
    problems.foreach(p => println(s"CHECK FAILED: $p"))

    val correct = driftOk && failed == 0 && envBad == 0
    println(resultJson(correct, attempted, failed, Seq(
      ("setup_s", percentile(setups, 50), "s"),
      ("query_p50_ms", percentile(lat.toSeq, 50), "ms"),
      ("query_tail_ms", percentile(lat.toSeq, tailP), "ms"),
      ("queries_per_s", attempted / wall, "1/s"),
      ("index_bytes", index.sizeBytes.toDouble, "bytes"),
      ("heap_mb", heapMb, "MB"),
      ("query_ok_share", 1.0 - failed.toDouble / attempted, "ratio"),
      ("envelope_ok_share", 1.0 - envBad.toDouble / envPairs, "ratio"),
    )))
    correct
  }
}

/** Entry point: `--workload <name> --seed <n> --seconds <s> --trace <0|1>
  * [--n <nodes>] [--trace-out <file>]`. Exits 1 if an output check fails.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(key: String): String =
      opts.getOrElse(key, throw new IllegalArgumentException(s"missing --$key"))
    val w       = Workload.named(need("workload"))
    val seed    = need("seed").toLong
    val seconds = need("seconds").toDouble
    val n       = opts.get("n").map(_.toInt).getOrElse(10_000)
    println(s"workload ${w.name}: k = ${w.k}, seed $seed, ${seconds}s, trace ${need("trace")}")
    val ok = need("trace") match {
      case "0" => Timed.run(w, n, seed, seconds)
      case "1" => Traced.run(w, n, seed, opts.getOrElse("trace-out", "spans.tsv"))
      case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    System.out.flush()
    if (!ok) sys.exit(1)
  }
}
