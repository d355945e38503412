package stepbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("tail is the highest percentile with at least ten samples beyond it") {
    val hundred = (1 to 100).map(_.toDouble).reverse
    assert(Stats.tail(hundred).contains(Stats.Tail(90, 90.0, 100)))
    assert(Stats.tail((1 to 20).map(_.toDouble)).contains(Stats.Tail(50, 10.0, 20)))
    assert(Stats.tail((1 to 11).map(_.toDouble)).contains(Stats.Tail(9, 1.0, 11)))
    assert(Stats.tail((1 to 10).map(_.toDouble)).isEmpty)
  }

  test("no higher percentile than the reported one keeps ten samples beyond it") {
    for (n <- 11 to 400) {
      val xs = (0 until n).map(i => ((i * 7919) % n).toDouble)
      val t  = Stats.tail(xs).get
      val sorted = xs.sorted
      assert(sorted.count(_ > t.value) >= 10, s"n=$n")
      if (t.percentile < 100) {
        val next = sorted(((t.percentile + 1) * n + 99) / 100 - 1)
        assert(sorted.count(_ > next) < 10, s"n=$n p=${t.percentile}")
      }
    }
  }

  test("median of odd and even samples") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 2.0, 3.0)) == 2.5)
  }
}
