package repro.perfbench

/** Order statistics and the result line. */
object Stats {

  /** Linear-interpolated quantile, q in [0, 1]. */
  def quantile(xs: Iterable[Double], q: Double): Double = {
    val s = xs.toArray.sorted
    require(s.nonEmpty, "no samples")
    val pos = q * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(s.length - 1, lo + 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Iterable[Double]): Double = quantile(xs, 0.5)

  final case class Metric(value: Double, unit: String)

  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "null" else java.lang.Double.toString(v)

  /** The one JSON object the benchmark prints as its last line. */
  def resultLine(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[(String, Metric)]): String =
    metrics.map { case (k, m) => s""""$k": {"value": ${num(m.value)}, "unit": "${m.unit}"}""" }
      .mkString(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {""", ", ", "}}")
}
