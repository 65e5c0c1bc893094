package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import scala.collection.mutable

/** One timed call into a layer: name, start, end and the span that caused it.
  * Spans of one benchmark round share `round`.
  */
final case class Span(id: Int, parent: Int, round: Int, name: String, startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** Per-item calls (one per log) folded into one record under their parent
  * span: writing a span per log would make the trace larger than the input.
  * They run on the parent's thread one after another, so their summed time
  * is the part of the parent they cover.
  */
final class ItemSpans(val name: String, val parent: Int) {
  var calls: Long = 0L
  var totalNs: Long = 0L

  @inline def time[A](f: => A): A = {
    val s = System.nanoTime()
    val r = f
    totalNs += System.nanoTime() - s
    calls += 1
    r
  }
}

/** In-memory span recorder for the traced run. Spans are kept until the run
  * ends and then written as one JSON file. Calls made on worker threads pass
  * their parent explicitly; the calling thread keeps a stack.
  */
final class Tracer {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private val items = mutable.ArrayBuffer.empty[ItemSpans]
  private val stack = new ThreadLocal[List[Int]] { override def initialValue(): List[Int] = Nil }
  @volatile var round: Int = 0
  private var nextId = 0

  def current: Int = stack.get().headOption.getOrElse(-1)

  def span[A](name: String, parent: Int = -2)(f: => A): A = {
    val id = synchronized { nextId += 1; nextId }
    val p = if (parent == -2) current else parent
    val before = stack.get()
    stack.set(id :: before)
    val s = System.nanoTime()
    try f
    finally {
      val e = System.nanoTime()
      stack.set(before)
      synchronized { spans += Span(id, p, round, name, s, e) }
    }
  }

  /** Folded per-item spans under the current span. */
  def items(name: String): ItemSpans = {
    val it = new ItemSpans(name, current)
    synchronized { items += it }
    it
  }

  def all: Seq[Span] = synchronized(spans.toList)

  /** Spans of one name in one round. */
  def named(name: String, r: Int): Seq[Span] = all.filter(s => s.name == name && s.round == r)

  def busyMs(name: String, r: Int): Double = named(name, r).map(_.durNs).sum / 1e6

  def itemCalls(name: String, parents: Set[Int]): Long =
    synchronized(items.filter(i => i.name == name && parents(i.parent)).map(_.calls).sum)

  def itemMs(name: String, parents: Set[Int]): Double = {
    val ns: Long = synchronized(items.filter(i => i.name == name && parents(i.parent)).map(_.totalNs).sum)
    ns / 1e6
  }

  /** Self time of the spans named `name` in round `r`: each span's duration
    * minus the part of it covered by its child spans (the union of their
    * intervals, as children on worker threads overlap) and by its folded items.
    */
  def selfMs(name: String, r: Int): Double = {
    val all0 = all
    val byParent = all0.groupBy(_.parent)
    val folded = synchronized(items.groupBy(_.parent).map { case (p, is) => p -> is.map(_.totalNs).sum })
    all0.filter(s => s.name == name && s.round == r).map { s =>
      val kids = byParent.getOrElse(s.id, Nil).map(c => (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs)))
        .filter { case (a, b) => b > a }.sortBy(_._1)
      var covered = 0L
      var curA = Long.MinValue; var curB = Long.MinValue
      kids.foreach { case (a, b) =>
        if (a > curB) { if (curB > curA) covered += curB - curA; curA = a; curB = b }
        else curB = math.max(curB, b)
      }
      if (curB > curA) covered += curB - curA
      (s.durNs - covered - folded.getOrElse(s.id, 0L)) / 1e6
    }.sum
  }

  def write(path: Path): Unit = {
    val sb = new StringBuilder("{\"spans\":[")
    all.sortBy(_.id).zipWithIndex.foreach { case (s, i) =>
      if (i > 0) sb.append(',')
      sb.append(s"""{"id":${s.id},"parent":${s.parent},"round":${s.round},"name":"${s.name}",""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs}}""")
    }
    sb.append("],\"items\":[")
    synchronized(items.toList).zipWithIndex.foreach { case (it, i) =>
      if (i > 0) sb.append(',')
      sb.append(s"""{"name":"${it.name}","parent":${it.parent},"calls":${it.calls},"total_ns":${it.totalNs}}""")
    }
    sb.append("]}\n")
    Files.createDirectories(path.getParent)
    Files.write(path, sb.toString.getBytes(StandardCharsets.UTF_8))
  }
}
