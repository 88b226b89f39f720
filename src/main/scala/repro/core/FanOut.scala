package repro.core

import java.util.concurrent.{CountDownLatch, ForkJoinPool}
import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}

/** Runs independent iterations on all cores: the calling thread plus as
  * many helpers as the JVM's common fork-join pool has threads (one less
  * than the core count); pool threads are daemons. Workers claim the next
  * index from a shared counter, so the body must write only to the result
  * slot of the index it is given; the results are then the same as a
  * sequential loop's, whichever worker ran which index.
  *
  * Failure: the first exception any worker throws stops further claims, and
  * the caller rethrows that exception itself once every helper that started
  * has finished, so no iteration outlives the call. The caller never waits
  * for a helper that has not started (it withdraws it instead), so a call
  * made from inside a pool thread cannot deadlock.
  */
object FanOut {

  def foreach(count: Int)(body: Int => Unit): Unit = {
    val pool    = ForkJoinPool.commonPool()
    val next    = new AtomicInteger(0)
    val failure = new AtomicReference[Throwable]()
    val work: Runnable = () =>
      try {
        var i = 0
        while (failure.get == null && { i = next.getAndIncrement(); i < count }) body(i)
      } catch { case t: Throwable => failure.compareAndSet(null, t) }

    val helpers = Array.fill(math.max(0, math.min(pool.getParallelism, count - 1)))(new Helper(work))
    helpers.foreach(pool.execute(_))
    work.run()
    helpers.foreach(_.join())
    val t = failure.get
    if (t != null) throw t
  }

  /** One helper task. It runs `work` only if it starts before the caller
    * withdraws it.
    */
  private final class Helper(work: Runnable) extends Runnable {
    private val state = new AtomicInteger(Queued)
    private val done  = new CountDownLatch(1)

    def run(): Unit =
      if (state.compareAndSet(Queued, Started)) {
        try work.run() finally done.countDown()
      }

    /** Withdraws the helper if it has not started, else waits for it. */
    def join(): Unit =
      if (!state.compareAndSet(Queued, Withdrawn)) {
        var interrupted = false
        while (done.getCount > 0) {
          try done.await()
          catch { case _: InterruptedException => interrupted = true }
        }
        if (interrupted) Thread.currentThread().interrupt()
      }
  }

  private final val Queued    = 0
  private final val Started   = 1
  private final val Withdrawn = 2
}
