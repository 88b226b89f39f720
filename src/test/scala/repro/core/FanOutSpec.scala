package repro.core

import java.util.concurrent.{Callable, ForkJoinPool, TimeUnit}
import java.util.concurrent.atomic.{AtomicInteger, AtomicIntegerArray}
import scala.jdk.CollectionConverters._
import org.scalatest.funsuite.AnyFunSuite
import repro.graph.GraphGen
import repro.hierarchy.Hierarchy
import repro.ppr.{Deadline, Dpr}
import repro.viz.PPRviz

/** The parallel fan-out: [[FanOut]] itself, and Tau-Push and the GBP index
  * built on it, which must give bit-identical results to a sequential loop
  * and must not leave work running after a failure.
  */
class FanOutSpec extends AnyFunSuite {

  private val alpha    = PPRviz.DefaultAlpha
  private val eps      = PPRviz.DefaultEps
  private val k        = 25
  private val opBudget = 30_000_000L
  private lazy val g    = GraphGen.hubHeavy(3000, 10, 50, 5, seed = 26)
  private lazy val hier = Hierarchy.build(g, k)
  private lazy val dpr  = Dpr.vector(g, alpha)
  private lazy val agg  = PPRviz.buildGbpAggregates(g, hier, dpr, k, alpha, eps, opBudget)

  private class Boom extends RuntimeException("boom")

  /** True if some thread other than the caller is inside the push code. */
  private def pushRunning(): Boolean =
    Thread.getAllStackTraces.asScala.exists { case (t, frames) =>
      (t ne Thread.currentThread()) &&
        frames.exists(f => f.getClassName.startsWith("repro.core.Gfp") ||
          f.getClassName.startsWith("repro.core.Gbp"))
    }

  test("FanOut runs every index exactly once, on daemon helpers") {
    Seq(0, 1, 2, 5, 100).foreach { count =>
      val runs   = new AtomicIntegerArray(count)
      val caller = Thread.currentThread()
      val nonDaemon = new AtomicInteger(0)
      FanOut.foreach(count) { i =>
        runs.incrementAndGet(i)
        val t = Thread.currentThread()
        if ((t ne caller) && !t.isDaemon) nonDaemon.incrementAndGet()
      }
      (0 until count).foreach(i => assert(runs.get(i) == 1, s"count $count, index $i"))
      assert(nonDaemon.get == 0)
    }
  }

  test("FanOut rethrows the first failure itself and waits for started work") {
    val active  = new AtomicInteger(0)
    val started = new AtomicInteger(0)
    val boom    = new Boom
    val thrown = intercept[Boom] {
      FanOut.foreach(1000) { i =>
        active.incrementAndGet()
        started.incrementAndGet()
        try {
          if (i == 3) throw boom
          Thread.sleep(5)
        } finally active.decrementAndGet()
      }
    }
    assert(thrown eq boom)
    assert(active.get == 0, "a worker was still running when FanOut returned")
    val after = started.get
    assert(after < 1000, "the failure did not stop further claims")
    Thread.sleep(30)
    assert(started.get == after, "an iteration started after FanOut returned")
  }

  test("FanOut called from inside pool threads does not deadlock") {
    val cells = Array.ofDim[Int](16, 16)
    val task = ForkJoinPool.commonPool().submit(new Callable[Unit] {
      def call(): Unit = FanOut.foreach(16) { i => FanOut.foreach(16)(j => cells(i)(j) = i * 16 + j) }
    })
    task.get(30, TimeUnit.SECONDS)
    for (i <- 0 until 16; j <- 0 until 16) assert(cells(i)(j) == i * 16 + j)
  }

  test("buildGbpAggregates equals a sequential per-target loop, bit for bit") {
    val tau = 1.0 / math.sqrt(k.toDouble * g.n)
    val expected = (for {
      level <- 0 to hier.nLevels
      id    <- hier.leafSets(level).indices
      if Dpr.ofSupernode(dpr, hier.leafSets(level)(id)) > tau
    } yield {
      val parent = if (level == hier.nLevels) -1 else hier.parents(level)(id)
      val (q, _) = PPRviz.queryWithIds(hier, level + 1, parent)
      val rbmax  = eps * PPRviz.delta(k) / (0 until q.k).map(q.avgDeg(_, g.outDeg)).max
      val (credit, _) = Gbp.credits(g, hier.leafSets(level)(id), alpha, rbmax, Deadline.none, opBudget)
      (level, id) -> Gbp.aggregate(q, credit)
    }).toMap
    assert(expected.nonEmpty)
    assert(agg.keySet == expected.keySet)
    expected.foreach { case (key, a) => assert(java.util.Arrays.equals(agg(key), a), s"target $key") }
  }

  /** Algorithm 1 as a sequential loop of `Gfp.run`/`Gbp.credits`, the way
    * `TauPush.run` computed it before the fan-out: (dppr, pushes, GBP
    * targets, index hits).
    */
  private def sequentialTauPush(q: SuperQuery, lookup: Int => Option[Array[Double]])
      : (Array[Array[Double]], Long, Int, Int) = {
    val tauJ     = Array.tabulate(q.k)(j => Dpr.ofSupernode(dpr, q.children(j)))
    val tau      = 1.0 / math.sqrt(q.k.toDouble * g.n)
    val (rmax, rbmax) = thresholds(q, PPRviz.delta(k))
    var pushes = 0L
    var hits   = 0
    val dppr = Array.tabulate(q.k) { i =>
      val r = Gfp.run(g, q, i, alpha, rmax)
      pushes += r.pushes
      r.est
    }
    val targets = (0 until q.k).filter(tauJ(_) > tau)
    targets.foreach { j =>
      val refined = lookup(j) match {
        case Some(a) => hits += 1; a
        case None =>
          val (c, p) = Gbp.credits(g, q.children(j), alpha, rbmax)
          pushes += p
          Gbp.aggregate(q, c)
      }
      (0 until q.k).foreach(s => if (s != j) dppr(s)(j) = refined(s))
    }
    (dppr, pushes, targets.length, hits)
  }

  /** Tau-Push's r_max and r^b_max for query `q` and failure probability `delta`. */
  private def thresholds(q: SuperQuery, delta: Double): (Double, Double) = {
    val tauJ     = Array.tabulate(q.k)(j => Dpr.ofSupernode(dpr, q.children(j)))
    val tau      = 1.0 / math.sqrt(q.k.toDouble * g.n)
    val covered  = tauJ.filter(_ <= tau)
    val tauCover = if (covered.isEmpty || covered.max <= 0.0) tau else covered.max
    (eps * delta / (g.m.toDouble * tauCover),
      eps * delta / (0 until q.k).map(q.avgDeg(_, g.outDeg)).max)
  }

  /** Runs `TauPush.run` 5 times against the sequential loop; returns the
    * number of index hits.
    */
  private def checkAgainstSequential(label: String, q: SuperQuery,
                                     lookup: Int => Option[Array[Double]]): Int = {
    val (dppr, pushes, targets, hits) = sequentialTauPush(q, lookup)
    (1 to 5).foreach { rep =>
      val res = TauPush.run(g, q, dpr, alpha, eps, PPRviz.delta(k), TauPush.Standard,
        Deadline.none, lookup)
      (0 until q.k).foreach { i =>
        assert(java.util.Arrays.equals(res.dppr(i), dppr(i)), s"$label row $i, repeat $rep")
      }
      assert(res.pushes == pushes, s"$label, repeat $rep")
      assert(res.gbpTargets == targets, s"$label, repeat $rep")
    }
    hits
  }

  test("Tau-Push equals a sequential GFP/GBP loop on the root and every hub query, over 5 repeats") {
    val hubQueries = agg.keys.toSeq.sorted.map { case (level, id) =>
      if (level == hier.nLevels) (level + 1, -1) else (level + 1, hier.parents(level)(id))
    }
    val queries = ((hier.nLevels + 1, -1) +: hubQueries).distinct
    val hits = queries.map { case (level, id) =>
      val (q, ids) = PPRviz.queryWithIds(hier, level, id)
      // The index lookup `PPRviz.queryPDist` makes.
      checkAgainstSequential(s"query ($level,$id)", q, j => agg.get((level - 1, ids(j))))
    }
    assert(hits.sum > 0, "no query read the GBP index")
  }

  test("Tau-Push with live GBP runs equals the sequential loop, over 5 repeats") {
    val (q, _) = PPRviz.queryWithIds(hier, hier.nLevels + 1, -1)
    checkAgainstSequential("root query without index", q, _ => None)
  }

  test("an expiring deadline stops the parallel Tau-Push promptly and no push outlives it") {
    val (q, _) = PPRviz.queryWithIds(hier, hier.nLevels + 1, -1)
    // δ this small pushes for far longer than the deadline allows.
    val delta = 1e-9
    (1 to 3).foreach { _ =>
      val due = System.nanoTime() + 5_000_000L
      intercept[Deadline.Exceeded] {
        TauPush.run(g, q, dpr, alpha, eps, delta, TauPush.Standard, new Deadline(due))
      }
      val overshootMs = (System.nanoTime() - due) / 1e6
      assert(!pushRunning(), "a push of the aborted call was still running")
      assert(overshootMs <= 50.0, s"deadline overshoot $overshootMs ms")
    }
  }

  test("a deadline that expires inside GFP sweeps stops Tau-Push within 50 ms, no push left running") {
    val (q, _) = PPRviz.queryWithIds(hier, hier.nLevels + 1, -1)
    // With δ this small each GFP run leaves the FIFO phase within its first
    // 100 000 pushed edges, about a millisecond, and then sweeps for
    // seconds, so the 30 ms deadline expires while the workers are sweeping.
    val delta = 1e-200
    val (rmax, _) = thresholds(q, delta)
    (0 until q.k).foreach { i =>
      val (_, outcome) = Gfp.runWithOutcome(g, q, i, alpha, rmax, Deadline.none, 100_000L)
      assert(outcome.swept, s"GFP from child $i did not reach the sweep phase")
    }
    (1 to 3).foreach { _ =>
      val due = System.nanoTime() + 30_000_000L
      intercept[Deadline.Exceeded] {
        TauPush.run(g, q, dpr, alpha, eps, delta, TauPush.Standard, new Deadline(due))
      }
      val overshootMs = (System.nanoTime() - due) / 1e6
      assert(!pushRunning(), "a push of the aborted call was still running")
      assert(overshootMs <= 50.0, s"deadline overshoot $overshootMs ms")
    }
  }

  test("a deadline that expires inside a live GBP sweep stops it within 50 ms") {
    val (q, _) = PPRviz.queryWithIds(hier, hier.nLevels + 1, -1)
    (0 until 3).foreach { j =>
      // As above: the run sweeps within its first 100 000 pushed edges.
      val outcome = Gbp.creditsWithOutcome(g, q.children(j), alpha, 1e-250, Deadline.none,
        100_000L).outcome
      assert(outcome.swept, s"GBP for child $j did not reach the sweep phase")
      val due = System.nanoTime() + 30_000_000L
      intercept[Deadline.Exceeded] {
        Gbp.credits(g, q.children(j), alpha, rbmax = 1e-250, new Deadline(due))
      }
      val overshootMs = (System.nanoTime() - due) / 1e6
      assert(overshootMs <= 50.0, s"deadline overshoot $overshootMs ms")
    }
  }
}
