package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.GraphGen
import repro.ppr.Deadline
import repro.viz.PPRviz

/** Theorem 4.3 where it is most at risk: the (ε,δ) envelope of Tau-Push on
  * a hub-heavy graph, on the queries whose children go through GBP — the
  * root query and the parent query of every GBP-indexed supernode — both
  * through the GBP index and with live GBP runs.
  */
class HubEnvelopeSpec extends AnyFunSuite {

  private val alpha = PPRviz.DefaultAlpha
  private val eps   = PPRviz.DefaultEps
  private val k     = 25
  private val delta = PPRviz.delta(k)
  private lazy val g     = GraphGen.hubHeavy(3000, 10, 50, 5, seed = 26)
  private lazy val index = PPRviz.preprocess(g, k)

  /** The root query and the parent query of every indexed supernode, as
    * (level, id) of the selected supernode; the root is (nLevels + 1, -1).
    */
  private lazy val queries: Seq[(Int, Int)] = {
    val hier = index.hier
    val parents = index.gbpAgg.keys.toSeq.sorted.map { case (level, id) =>
      if (level == hier.nLevels) (level + 1, -1) else (level + 1, hier.parents(level)(id))
    }
    ((hier.nLevels + 1, -1) +: parents).distinct
  }

  private def violations(res: TauPushResult, exact: Array[Array[Double]]): Seq[String] =
    for {
      i <- exact.indices
      j <- exact.indices
      if i != j
      ex    = exact(i)(j)
      bound = if (ex < delta) eps * delta else eps * ex
      if math.abs(res.dppr(i)(j) - ex) > bound + 1e-9
    } yield s"pair ($i,$j) est=${res.dppr(i)(j)} exact=$ex"

  test("Tau-Push is (eps,delta)-approximate on every GBP query of a hub-heavy graph, via the index and live") {
    assert(queries.length > 1, "no GBP-indexed supernode")
    var indexedTargets = 0
    queries.foreach { case (level, id) =>
      val (q, _) = PPRviz.queryWithIds(index.hier, level, id)
      val exact  = Dppr.exactMatrix(g, q, alpha)
      val viaIndex = PPRviz.queryPDist(g, index, level, id, k)
      val live = TauPush.run(g, q, index.leafDpr, alpha, eps, delta, TauPush.Standard,
        Deadline.none, _ => None)
      assert(viaIndex.gbpTargets == live.gbpTargets)
      indexedTargets += viaIndex.gbpTargets
      val bad = violations(viaIndex, exact).map("index: " + _) ++ violations(live, exact).map("live: " + _)
      assert(bad.isEmpty, s"query ($level,$id): ${bad.take(5).mkString("; ")}")
    }
    assert(indexedTargets > 0, "no query went through GBP")
  }
}
