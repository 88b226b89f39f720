package repro.viz

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Dppr, PDist}
import repro.graph.GraphGen
import repro.ppr.Deadline

class PPRvizSpec extends AnyFunSuite {

  // FilmTrust: a power-law graph whose hubs exceed the DPR threshold, so the
  // GBP part of the index is exercised (wikiII has no high-DPR supernodes).
  private val k = 10
  private lazy val g     = GraphGen.filmTrust
  private lazy val index = PPRviz.preprocess(g, k)

  test("preprocess produces a hierarchy respecting k") {
    assert(index.hier.levelSize(index.hier.nLevels) <= k)
  }

  test("preprocess timings are recorded") {
    assert(index.hierSeconds >= 0 && index.dprSeconds >= 0 && index.gbpSeconds >= 0)
    assert(index.preprocessSeconds ==
      index.hierSeconds + index.dprSeconds + index.gbpSeconds)
  }

  test("index stores GBP results exactly for supernodes above the DPR threshold") {
    val tau = 1.0 / math.sqrt(k.toDouble * g.n)
    (0 to index.hier.nLevels).foreach { level =>
      val sets = index.hier.leafSets(level)
      sets.indices.foreach { id =>
        val tauJ = repro.ppr.Dpr.ofSupernode(index.leafDpr, sets(id))
        assert(index.gbpAgg.contains((level, id)) == (tauJ > tau),
          s"level $level id $id tau_j=$tauJ")
      }
    }
  }

  test("query PDist values respect the Eq. 1 range at every level") {
    val levels = (1 to index.hier.nLevels).map(l => (l, 0)) :+ (index.hier.nLevels + 1, -1)
    levels.foreach { case (level, id) =>
      val res = PPRviz.queryPDist(g, index, level, id, k)
      val kk = res.pdist.length
      for (i <- 0 until kk; j <- 0 until kk if i != j) {
        assert(res.pdist(i)(j) >= 2.0 - 1e-12 && res.pdist(i)(j) <= PDist.upper(g.n) + 1e-12)
      }
    }
  }

  test("indexed query stays within the (eps,delta) envelope of the exact values") {
    val (q, _) = PPRviz.queryWithIds(index.hier, index.hier.nLevels + 1, -1)
    val res    = PPRviz.queryPDist(g, index, index.hier.nLevels + 1, -1, k)
    val exact  = Dppr.exactMatrix(g, q, PPRviz.DefaultAlpha)
    val eps    = PPRviz.DefaultEps
    val delta  = PPRviz.delta(k)
    for (i <- 0 until q.k; j <- 0 until q.k if i != j) {
      val ex = exact(i)(j)
      val bound = if (ex < delta) eps * delta else eps * ex
      assert(math.abs(res.dppr(i)(j) - ex) <= bound + 1e-9, s"pair ($i,$j)")
    }
  }

  test("visualize returns one 2-D row per child") {
    val x = PPRviz.visualize(g, index, index.hier.nLevels + 1, -1, k)
    assert(x.length == index.hier.levelSize(index.hier.nLevels))
    assert(x.forall(p => p.length == 2 && p.forall(v => !v.isNaN)))
  }

  test("responseTime is positive and fast on the small graph") {
    val t = PPRviz.responseTime(g, index, k, paths = 2, seed = 5)
    assert(t > 0 && t < 5.0)
  }

  test("stored GBP aggregates equal a live GBP run against the parent query") {
    assert(index.gbpAgg.nonEmpty, "expected at least one high-DPR supernode")
    index.gbpAgg.foreach { case ((level, id), stored) =>
      val (q, ids) =
        if (level == index.hier.nLevels) PPRviz.queryWithIds(index.hier, index.hier.nLevels + 1, -1)
        else PPRviz.queryWithIds(index.hier, level + 1, index.hier.parents(level)(id))
      val j = ids.indexOf(id)
      assert(j >= 0, s"($level,$id) not among its parent's children")
      val maxAvgDeg = (0 until q.k).map(q.avgDeg(_, g.outDeg)).max
      val rbmax     = PPRviz.DefaultEps * PPRviz.delta(k) / maxAvgDeg
      val live = repro.core.Gbp.run(g, q, j, PPRviz.DefaultAlpha, rbmax)
      stored.indices.foreach(i => assert(math.abs(stored(i) - live(i)) < 1e-12))
    }
  }

  test("index size accounting covers hierarchy, DPR and GBP aggregates") {
    val expected = index.hier.sizeBytes + 8L * g.n +
      index.gbpAgg.valuesIterator.map(a => 8L * a.length + 32L).sum
    assert(index.sizeBytes == expected)
  }

  test("index space is small: O(n + k·sqrt(kn)) not O(n·targets)") {
    // The GBP part stores k doubles per high-DPR supernode, never per-node
    // vectors (the §4.3 index-space claim).
    index.gbpAgg.foreach { case ((level, id), a) =>
      assert(a.length <= math.max(k, index.hier.levelSize(index.hier.nLevels)),
        s"($level,$id) stores ${a.length} values")
    }
  }

  test("queries honour deadlines") {
    intercept[Deadline.Exceeded] {
      PPRviz.queryPDist(g, index, index.hier.nLevels + 1, -1, k,
        deadline = new Deadline(System.nanoTime() - 1))
    }
  }

  test("the GBP index fails loudly when the op budget stops a target before it converges") {
    val budget = 10L
    val err = intercept[IllegalStateException] {
      PPRviz.buildGbpAggregates(g, index.hier, index.leafDpr, k, PPRviz.DefaultAlpha,
        PPRviz.DefaultEps, budget)
    }
    val Msg = """GBP index: target \(level (\d+), id (\d+)\) stopped at the op budget before converging \((\d+) pushes, budget 10\).*""".r
    err.getMessage match {
      case Msg(level, id, pushes) =>
        assert(index.gbpAgg.contains((level.toInt, id.toInt)), s"(level $level, id $id) is not a GBP target")
        assert(pushes.toLong >= budget)
      case other => fail(s"unexpected message: $other")
    }
  }

  test("the GBP index builds when a target's last push crosses the op budget") {
    // The largest target's full push count as the budget: its last push
    // reaches the budget, yet the run converged, so the build succeeds.
    val budget = index.gbpAgg.keys.map { case (level, id) =>
      val (q, ids) =
        if (level == index.hier.nLevels) PPRviz.queryWithIds(index.hier, index.hier.nLevels + 1, -1)
        else PPRviz.queryWithIds(index.hier, level + 1, index.hier.parents(level)(id))
      val rbmax = PPRviz.DefaultEps * PPRviz.delta(k) / (0 until q.k).map(q.avgDeg(_, g.outDeg)).max
      repro.core.Gbp.credits(g, q.children(ids.indexOf(id)), PPRviz.DefaultAlpha, rbmax)._2
    }.max
    val agg = PPRviz.buildGbpAggregates(g, index.hier, index.leafDpr, k, PPRviz.DefaultAlpha,
      PPRviz.DefaultEps, budget)
    assert(agg.keySet == index.gbpAgg.keySet)
    agg.foreach { case (key, a) => assert(java.util.Arrays.equals(a, index.gbpAgg(key)), s"target $key") }
  }
}
