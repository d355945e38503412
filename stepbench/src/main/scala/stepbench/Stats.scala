package stepbench

/** Order statistics used for every reported timing. */
object Stats {

  /** Linear-interpolated median (mean of the middle pair for even n). */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** A tail percentile together with the number of samples it was read from. */
  final case class Tail(percentile: Int, value: Double, samples: Int)

  /** The highest integer percentile whose nearest-rank value still has at
    * least `minBeyond` samples ranked after it; None when there are too
    * few samples for any percentile to qualify.
    */
  def tail(xs: Seq[Double], minBeyond: Int = 10): Option[Tail] = {
    val n = xs.size
    // Nearest rank of percentile p is ceil(p * n / 100); `n - rank` samples lie beyond it.
    def rank(p: Int): Int = (p * n + 99) / 100
    (100 to 1 by -1).find(p => n - rank(p) >= minBeyond).map { p =>
      Tail(p, xs.sorted.apply(rank(p) - 1), n)
    }
  }
}
