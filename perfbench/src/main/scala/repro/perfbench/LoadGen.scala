package repro.perfbench

import java.util.concurrent.LinkedBlockingQueue
import java.util.concurrent.locks.LockSupport

/** Result of one open-loop pass: per micro-batch latency from its due time,
  * how late the generator handed each batch over, and the deepest backlog.
  */
final case class OpenLoopResult(latencyMs: Array[Double], lagMs: Array[Double], backlogMax: Int)

/** Open-loop load generator: one thread offers micro-batches of the stream on
  * a fixed schedule, whether or not the parser has finished the previous
  * batch, so a slow parser builds a backlog instead of slowing the offered
  * load. The calling thread is the parser.
  */
object LoadGen {

  /** Micro-batch spacing: 2 ms keeps a batch's service time around a
    * millisecond at the fixed rates while giving over 500 batches per pass.
    */
  val IntervalNs: Long = 2_000_000L

  private final case class Batch(from: Int, until: Int, dueNs: Long)

  def run(n: Int, rate: Double)(process: (Int, Int) => Unit): OpenLoopResult = {
    val perBatch = math.max(1, math.round(rate * IntervalNs / 1e9).toInt)
    val batches = (n + perBatch - 1) / perBatch
    val queue = new LinkedBlockingQueue[Batch]()
    val lag = new Array[Double](batches)
    @volatile var backlogMax = 0
    val t0 = System.nanoTime() + 5_000_000L
    val gen = new Thread(() => {
      var k = 0
      while (k < batches) {
        val due = t0 + k * IntervalNs
        var now = System.nanoTime()
        while (now < due) { LockSupport.parkNanos(due - now); now = System.nanoTime() }
        queue.put(Batch(k * perBatch, math.min(n, (k + 1) * perBatch), due))
        lag(k) = (now - due) / 1e6
        backlogMax = math.max(backlogMax, queue.size())
        k += 1
      }
    }, "perfbench-loadgen")
    gen.setDaemon(true)
    gen.start()
    val latency = new Array[Double](batches)
    var k = 0
    while (k < batches) {
      val b = queue.take()
      process(b.from, b.until)
      latency(k) = (System.nanoTime() - b.dueNs) / 1e6
      k += 1
    }
    gen.join()
    OpenLoopResult(latency, lag, backlogMax)
  }
}
