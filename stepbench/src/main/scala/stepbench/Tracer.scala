package stepbench

import java.io.PrintWriter
import scala.collection.mutable.ArrayBuffer

/** In-memory span recorder for the traced run. Spans are recorded around
  * calls into the program's public functions, kept in memory, and written
  * out once when the run ends. While `enabled` is false `span` only runs
  * its body, so untraced steps pay nothing but a branch.
  */
final class Tracer {
  import Tracer.Span

  var enabled: Boolean = false
  /** Step id stamped on new spans (-1 for set-up). */
  var step: Int = -1

  private val spans = ArrayBuffer.empty[Span]
  private var open  = List.empty[Int]

  def span[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val idx = spans.size
      spans += Span(name, System.nanoTime(), -1L, open.headOption.getOrElse(-1), step)
      open = idx :: open
      try body
      finally {
        open = open.tail
        spans(idx) = spans(idx).copy(end = System.nanoTime())
      }
    }

  /** Self time per span in ns: its duration minus the part its children cover. */
  def selfNanos: Vector[(Span, Long)] = {
    val childNs = Array.fill(spans.size)(0L)
    spans.foreach(s => if (s.parent >= 0) childNs(s.parent) += s.end - s.start)
    spans.indices.map(i => spans(i) -> (spans(i).end - spans(i).start - childNs(i))).toVector
  }

  /** Per step, the summed self time in ms of each span name. */
  def selfMsByStep: Map[Int, Map[String, Double]] =
    selfNanos.groupBy(_._1.step).map { case (st, xs) =>
      st -> xs.groupBy(_._1.name).map { case (n, ys) => n -> ys.map(_._2).sum / 1e6 }
    }

  /** Per step, the summed wall time in ms of each span name. */
  def wallMsByStep: Map[Int, Map[String, Double]] =
    spans.toVector.groupBy(_.step).map { case (st, xs) =>
      st -> xs.groupBy(_.name).map { case (n, ys) => n -> ys.map(s => s.end - s.start).sum / 1e6 }
    }

  /** Writes every span as one JSON line (times in ns from the first span). */
  def write(path: java.io.File): Unit = {
    path.getParentFile.mkdirs()
    val t0 = spans.headOption.map(_.start).getOrElse(0L)
    val out = new PrintWriter(path, "UTF-8")
    try spans.zipWithIndex.zip(selfNanos).foreach { case ((s, i), (_, self)) =>
      out.println(s"""{"id":$i,"name":"${s.name}","step":${s.step},"parent":${s.parent},""" +
        s""""start_ns":${s.start - t0},"end_ns":${s.end - t0},"self_ns":$self}""")
    } finally out.close()
  }
}

object Tracer {
  final case class Span(name: String, start: Long, end: Long, parent: Int, step: Int)
}
