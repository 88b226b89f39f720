package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.GraphGen
import repro.ppr.{Deadline, Dpr, PowerIteration}

/** Lemma 4.1 / 4.2: GFP and GBP return (ε,δ)-approximate level-ℓ DPPR under
  * the paper's threshold settings, verified against the exact Eq. 2 values.
  */
class GfpGbpSpec extends AnyFunSuite {

  private val alpha = 0.2
  private val eps   = 1.0 - 1.0 / math.E
  private lazy val g = GraphGen.fbEgo
  // A 5-child partition of an arbitrary subset of nodes (supernode S).
  private lazy val q = SuperQuery(g.n,
    Array(Array(0, 1, 2), Array(3, 4), Array(10, 11, 12, 13), Array(20, 21), Array(30, 35)))
  private lazy val exact = Dppr.exactMatrix(g, q, alpha)
  private lazy val dpr   = Dpr.vector(g, alpha)
  private val delta = 1.0 / 50.0 // 1/(10k), k = 5

  private def envelopeOk(est: Double, ex: Double): Boolean = {
    val bound = if (ex < delta) eps * delta else eps * ex
    math.abs(est - ex) <= bound + 1e-9
  }

  test("GFP initial residues follow Line 2 of Algorithm 2") {
    // With rmax huge nothing is pushed; residues must be d(v)/|F(Vi)|.
    val r = Gfp.run(g, q, 0, alpha, rmax = 1e9)
    q.children(0).foreach { v =>
      assert(math.abs(r.residue(v) - g.outDeg(v) / 3.0) < 1e-12)
    }
    assert(r.pushes == 0)
  }

  test("GFP satisfies the grouped invariant of Lemma A.2") {
    val exactD = PowerIteration.dpprMatrix(g, alpha)
    val r = Gfp.run(g, q, 1, alpha, rmax = 0.05)
    (0 until q.k).foreach { j =>
      val err = q.children(j).map { t =>
        (0 until g.n).map(k => r.residue(k) / g.outDeg(k) * exactD(k)(t)).sum
      }.sum / q.size(j)
      assert(math.abs(exact(1)(j) - (r.est(j) + err)) < 1e-6, s"target child $j")
    }
  }

  test("GFP with the Lemma 4.1 rmax is (eps,delta)-approximate for low-DPR targets") {
    val tau  = (0 until q.k).map(j => Dpr.ofSupernode(dpr, q.children(j))).max
    val rmax = eps * delta / (g.m * tau)
    (0 until q.k).foreach { i =>
      val r = Gfp.run(g, q, i, alpha, rmax)
      (0 until q.k).foreach { j =>
        assert(envelopeOk(r.est(j), exact(i)(j)), s"pair ($i,$j)")
      }
    }
  }

  test("GFP estimates never exceed the exact value") {
    val r = Gfp.run(g, q, 2, alpha, rmax = 0.01)
    (0 until q.k).foreach(j => assert(r.est(j) <= exact(2)(j) + 1e-9))
  }

  test("GBP with the Eq. 6 rbmax is (eps,delta)-approximate for every source") {
    val maxAvgDeg = (0 until q.k).map(q.avgDeg(_, g.outDeg)).max
    val rbmax = eps * delta / maxAvgDeg
    (0 until q.k).foreach { j =>
      val est = Gbp.run(g, q, j, alpha, rbmax)
      (0 until q.k).foreach { i =>
        if (i != j) assert(envelopeOk(est(i), exact(i)(j)), s"pair ($i,$j)")
      }
    }
  }

  test("GBP error bound from Lemma 4.2: err <= avgdeg(Vi)·rbmax") {
    val rbmax = 0.001
    (0 until q.k).foreach { j =>
      val est = Gbp.run(g, q, j, alpha, rbmax)
      (0 until q.k).foreach { i =>
        val err = exact(i)(j) - est(i)
        assert(err >= -1e-9)
        assert(err <= q.avgDeg(i, g.outDeg) * rbmax + 1e-9, s"pair ($i,$j)")
      }
    }
  }

  test("GBP credits are query independent: aggregate(credits) == run") {
    val rbmax = 0.005
    val (credit, _) = Gbp.credits(g, q.children(1), alpha, rbmax)
    val viaCredits  = Gbp.aggregate(q, credit)
    val direct      = Gbp.run(g, q, 1, alpha, rbmax)
    (0 until q.k).foreach(i => assert(math.abs(viaCredits(i) - direct(i)) < 1e-12))
  }

  test("GBP opBudget caps work") {
    val (_, pushesFull)  = Gbp.credits(g, q.children(0), alpha, 1e-6)
    val (_, pushesSmall) = Gbp.credits(g, q.children(0), alpha, 1e-6, opBudget = 10)
    assert(pushesSmall <= pushesFull)
    val maxInDeg = (0 until g.n).map(g.inDeg).max
    assert(pushesSmall <= 10 + maxInDeg) // at most one step past the budget
  }

  // The sweep phase. FilmTrust (n = 874, power-law) switches from the FIFO
  // queue to sweeps once 54 nodes are queued, so a small threshold runs both
  // phases and a large one stays in the FIFO phase.
  private lazy val pg = GraphGen.filmTrust
  private lazy val pq = SuperQuery(pg.n,
    Array(Array(0, 1, 2), Array(5, 6), Array(40, 41, 42, 43), Array(300, 301), Array(800, 850)))
  private lazy val pgExactD = PowerIteration.dpprMatrix(pg, alpha)

  private def gfp(i: Int, rmax: Double): (GfpResult, Push.Outcome) =
    Gfp.runWithOutcome(pg, pq, i, alpha, rmax, Deadline.none, Long.MaxValue)

  private def gbp(j: Int, rbmax: Double, opBudget: Long = Long.MaxValue): GbpRun =
    Gbp.creditsWithOutcome(pg, pq.children(j), alpha, rbmax, Deadline.none, opBudget)

  test("GFP with a large rmax stays in the FIFO phase, a small one reaches sweeps") {
    val (_, large) = gfp(0, rmax = 0.1)
    assert(large.pushes > 0 && !large.swept && large.converged)
    val (_, small) = gfp(0, rmax = 1e-7)
    assert(small.swept && small.converged)
  }

  test("GFP through the sweep phase keeps the grouped invariant of Lemma A.2 and its stopping rule") {
    (0 until pq.k).foreach { i =>
      val (r, outcome) = gfp(i, rmax = 1e-6)
      assert(outcome.swept, s"source child $i never left the FIFO phase")
      (0 until pg.n).foreach(v => assert(r.residue(v) <= pg.outDeg(v) * 1e-6, s"node $v"))
      val exactRow = Dppr.exactRow(pg, pq, i, alpha)
      (0 until pq.k).foreach { j =>
        val err = pq.children(j).map { t =>
          (0 until pg.n).map(v => r.residue(v) / pg.outDeg(v) * pgExactD(v)(t)).sum
        }.sum / pq.size(j)
        assert(math.abs(exactRow(j) - (r.est(j) + err)) < 1e-6, s"pair ($i,$j)")
      }
    }
  }

  test("GBP on degree-scaled residues keeps the backward-push invariant through the sweep phase") {
    // For every node s: avg_{t∈T} d(s)·π(s,t) = credit(s) + Σ_v d(s)·π(s,v)·r(v),
    // with r(v) = s(v)/d(v) the unscaled final residue.
    val rbmax = 1e-6
    (0 until pq.k).foreach { j =>
      val target = pq.children(j)
      val run = gbp(j, rbmax)
      assert(run.outcome.swept, s"target child $j never left the FIFO phase")
      (0 until pg.n).foreach { v =>
        assert(run.scaled(v) <= pg.outDeg(v) * rbmax, s"node $v above the stopping threshold")
        val lhs = target.map(t => pgExactD(v)(t)).sum / target.length
        var rhs = run.credit(v)
        (0 until pg.n).foreach(u => rhs += pgExactD(v)(u) * run.scaled(u) / pg.outDeg(u))
        assert(math.abs(lhs - rhs) < 1e-6, s"target child $j, node $v")
      }
    }
  }

  test("GBP opBudget stops a run inside the sweep phase at most one push past the budget") {
    val rbmax = 1e-7
    val full  = gbp(2, rbmax).outcome
    val budget = full.pushes / 2
    val cut = gbp(2, rbmax, budget)
    assert(cut.outcome.swept && !cut.outcome.converged)
    assert(cut.outcome.pushes >= budget)
    val maxInDeg = (0 until pg.n).map(pg.inDeg).max
    assert(cut.outcome.pushes <= budget + maxInDeg)
    assert(cut.outcome.pushes < full.pushes)
    assert((0 until pg.n).exists(v => cut.scaled(v) > pg.outDeg(v) * rbmax))
  }

  test("a GBP run whose last push crosses the budget has converged") {
    val rbmax = 1e-7
    val full  = gbp(2, rbmax)
    // With the budget at the full push count, the check before the last
    // push passes, that push reaches the budget, and the next sweep finds
    // nothing to push.
    val atBudget = gbp(2, rbmax, full.outcome.pushes)
    assert(atBudget.outcome == full.outcome)
    assert(atBudget.outcome.converged)
    assert(java.util.Arrays.equals(atBudget.credit, full.credit))
  }

  test("GBP credits from the sweep phase stay within the Lemma 4.2 bound") {
    val rbmax = 1e-5
    val exact = Dppr.exactMatrix(pg, pq, alpha)
    (0 until pq.k).foreach { j =>
      val run = gbp(j, rbmax)
      assert(run.outcome.swept, s"target child $j")
      val est = Gbp.aggregate(pq, run.credit)
      (0 until pq.k).foreach { i =>
        val err = exact(i)(j) - est(i)
        assert(err >= -1e-9 && err <= pq.avgDeg(i, pg.outDeg) * rbmax + 1e-9, s"pair ($i,$j)")
      }
    }
  }

  test("exactRow equals the per-leaf Eq. 2 aggregation") {
    val perLeaf = Dppr.perLeafMatrix(g, q, alpha)
    (0 until q.k).foreach { i =>
      val row = Dppr.exactRow(g, q, i, alpha)
      (0 until q.k).foreach { j =>
        assert(math.abs(row(j) - perLeaf(i)(j)) < 1e-6, s"pair ($i,$j)")
      }
    }
  }

  test("level-ℓ DPPR Fig. 3 sanity: better-connected supernode pairs score higher") {
    // Two tight cliques A, B sharing two bridges, and a third clique C with
    // a single bridge to A: dppr(A,B) should exceed dppr(A,C).
    val edges = Seq(
      (0, 1), (1, 2), (0, 2),      // clique A = {0,1,2}
      (3, 4), (4, 5), (3, 5),      // clique B = {3,4,5}
      (6, 7), (7, 8), (6, 8),      // clique C = {6,7,8}
      (0, 3), (1, 4),              // two bridges A-B
      (2, 6),                      // one bridge A-C
    )
    val gg = repro.graph.LocalGraph.undirected(9, edges)
    val qq = SuperQuery(gg.n, Array(Array(0, 1, 2), Array(3, 4, 5), Array(6, 7, 8)))
    val ex = Dppr.exactMatrix(gg, qq, alpha)
    assert(ex(0)(1) > ex(0)(2))
  }
}
