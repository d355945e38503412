package stepbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{ClientPlaceTree, ImageItem, SampleMeta, StepPlan}
import repro.data.PackedSeq

class ChecksSpec extends AnyFunSuite {
  // pp2 x dp1 x cp2 x tp1: one bucket, four consuming clients.
  val tree = ClientPlaceTree(pp = 2, dp = 1, cp = 2, tp = 1)
  val ctx  = 100L
  val seq  = PackedSeq(7L, Vector(SampleMeta(2, "s", 30, 0), SampleMeta(1, "s", 20, 0)))
  val plan = StepPlan(tree, 1, Vector(Vector(Vector(seq))), Vector.fill(tree.world)(Vector(Vector.empty[ImageItem])))

  /** The delivery view of `seq` as a correct constructor would produce it. */
  def correct: Vector[Delivered] = tree.clients.map { c =>
    val chunk = ctx / tree.cp
    val chunkTokens = math.max(0L, math.min(chunk, seq.tokens - c.cp * chunk))
    Delivered(0, 0, 7L, 2, Vector(30L, 20L), 50L, c.cp, chunkTokens, c.rank, c.pp,
              if (c.pp > 0) 0L else 1000L)
  }

  test("a correct delivery passes with nothing misrouted or misplaced") {
    val r = Checks.delivery(plan, correct, tree, Set("TP"))
    assert(r.failures.isEmpty && r.misrouted == 0 && r.misplaced == 0 && r.orderMismatch == 0)
    assert(r.tokens == 50 && r.rows == 4 && r.segs == 2)
  }

  test("id-sorted segments and chunks sent to every CP rank are counted, not failed") {
    val sortedById = correct.map(_.copy(segLens = Vector(20L, 30L)))
    val everyRank  = sortedById ++ sortedById.map(d => d.copy(cpRank = 1 - d.cpRank))
    val r = Checks.delivery(plan, everyRank, tree, Set("TP"))
    assert(r.failures.isEmpty)
    assert(r.orderMismatch == 1 && r.misplaced == 2)
    assert(r.misrouted == 4 && r.rows == 8)
  }

  test("missing sequences, token mismatches and PP>0 payload bytes fail the step") {
    assert(Checks.delivery(plan, Vector.empty, tree, Set("TP")).failures.nonEmpty)
    assert(Checks.delivery(plan, correct.map(_.copy(tokens = 49)), tree, Set("TP")).failures.nonEmpty)
    assert(Checks.delivery(plan, correct.map(_.copy(bytes = 5)), tree, Set("TP")).failures.nonEmpty)
    assert(Checks.delivery(plan, correct.map(_.copy(segLens = Vector(30L, 30L))), tree, Set("TP"))
      .failures.nonEmpty)
  }
}
