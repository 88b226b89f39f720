package repro.ppr

import org.scalatest.funsuite.AnyFunSuite

/** The push loops' FIFO ring and its deadline check interval. */
class NodeQueueSpec extends AnyFunSuite {

  test("NodeQueue is FIFO across the ring's wrap-around") {
    val q = new NodeQueue(4)
    val out = scala.collection.mutable.ArrayBuffer.empty[Int]
    q.add(0); q.add(1); q.add(2)
    out += q.poll(Deadline.none); out += q.poll(Deadline.none)
    q.add(3); q.add(4); q.add(5)
    while (!q.isEmpty) out += q.poll(Deadline.none)
    assert(out == Seq(0, 1, 2, 3, 4, 5))
  }

  test("size counts the queued nodes across the wrap-around") {
    val q = new NodeQueue(3)
    assert(q.size == 0)
    q.add(7); q.add(8); q.add(9)
    assert(q.size == 3)
    q.poll(Deadline.none); q.add(10)
    assert(q.size == 3)
    while (!q.isEmpty) q.poll(Deadline.none)
    assert(q.size == 0)
  }

  test("poll checks the deadline on the first and then every 1024th call") {
    val q = new NodeQueue(3000)
    (0 until 3000).foreach(q.add)
    val expired = new Deadline(System.nanoTime() - 1)
    intercept[Deadline.Exceeded](q.poll(expired))
    // The first poll threw before dequeuing; the next 1023 do not check.
    assert(q.poll(Deadline.none) == 0)
    (1 until 1024).foreach(i => assert(q.poll(expired) == i))
    intercept[Deadline.Exceeded](q.poll(expired))
  }
}
