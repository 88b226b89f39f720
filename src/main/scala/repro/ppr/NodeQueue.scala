package repro.ppr

/** FIFO of node ids for the push loops (Forward-Push, Backward-Push, GFP,
  * GBP), backed by a primitive ring of `capacity` slots. Every push loop
  * keeps a node in the queue at most once (its `inQueue` flags), so a
  * capacity of n never overflows.
  *
  * [[poll]] also owns the loops' deadline check: it checks on the first poll
  * and then every 1 024 polls, so the check interval is a fixed number of
  * dequeues rather than a number of pushed edges, which a hub can inflate.
  */
final class NodeQueue(capacity: Int) {
  private val ring  = new Array[Int](capacity)
  private var head  = 0
  private var count = 0
  private var polls = 0L

  def isEmpty: Boolean = count == 0

  /** Number of nodes in the queue. */
  def size: Int = count

  def add(v: Int): Unit = {
    var tail = head + count
    if (tail >= capacity) tail -= capacity
    ring(tail) = v
    count += 1
  }

  /** Removes and returns the oldest node, checking `deadline` first on
    * every 1 024th call.
    */
  def poll(deadline: Deadline): Int = {
    if ((polls & 0x3ff) == 0) deadline.check()
    polls += 1
    val v = ring(head)
    head += 1
    if (head == capacity) head = 0
    count -= 1
    v
  }
}
