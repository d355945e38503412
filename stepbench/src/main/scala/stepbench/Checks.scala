package stepbench

import org.apache.spark.sql.Row
import repro.core.{ClientPlaceTree, PlanRow, SampleMeta, StepPlan}

/** One row of the delivery view: a packed sequence's CP chunk as one
  * client receives it.
  */
final case class Delivered(bucket: Int, bin: Int, seqId: Long, nSegments: Long, segLens: Vector[Long],
                           tokens: Long, cpRank: Int, chunkTokens: Long, rank: Int, pp: Int,
                           bytes: Long)

object Delivered {
  /** Columns the step's Spark action materialises, in this order. */
  val columns: Seq[String] = Seq("bucket", "bin", "seqId", "n_segments", "seg_lens", "tokens",
                                 "cp_rank", "chunk_tokens", "rank", "pp", "delivered_bytes")

  def fromRow(r: Row): Delivered = {
    def l(i: Int): Long = r.getAs[Number](i).longValue
    Delivered(l(0).toInt, l(1).toInt, l(2), l(3), r.getSeq[Number](4).map(_.longValue).toVector,
              l(5), l(6).toInt, l(7), l(8).toInt, l(9).toInt, l(10))
  }
}

/** Outcome of checking one step's output against its plan.
  *
  * @param failures      reasons the step failed: a planned sample missing or
  *                      duplicated, a token-total mismatch, or payload bytes
  *                      sent to a PP>0 client
  * @param seqs          sequences checked
  * @param orderMismatch sequences whose `seg_lens` differ from the plan's
  *                      pack order
  * @param segs          segments (samples) in the checked sequences
  * @param misplaced     segments whose length is not the one the plan packed
  *                      at that position
  * @param rows          delivered (sequence, CP chunk, client) rows
  * @param misrouted     rows whose CP chunk reached a client of another CP rank
  * @param tokens        real tokens delivered (each sequence counted once)
  * @param bytes         payload bytes delivered
  */
final case class CheckResult(failures: Vector[String], seqs: Int, orderMismatch: Int, segs: Long,
                             misplaced: Long, rows: Long, misrouted: Long, tokens: Long, bytes: Long)

object CheckResult {
  /** The record of a step that never reached its checks. */
  val empty: CheckResult = CheckResult(Vector.empty, 0, 0, 0, 0, 0, 0, 0, 0)
}

object Checks {

  /** Plan-level checks: `planRows` covers every sampled id exactly once,
    * lists each sequence's samples in pack order, and the plan's tokens
    * equal the sampled tokens after truncation to the context.
    */
  def plan(sampled: Seq[SampleMeta], plan: StepPlan, rows: Seq[PlanRow], ctx: Long): CheckResult = {
    val failures = Vector.newBuilder[String]
    val ids = rows.map(_.sampleId)
    if (ids.distinct.size != ids.size) failures += s"${ids.size - ids.distinct.size} planned rows duplicated"
    val missing = sampled.map(_.id).toSet -- ids
    if (missing.nonEmpty) failures += s"${missing.size} sampled ids missing from the plan"
    val want = sampled.map(s => math.min(s.seqLen, ctx)).sum
    if (plan.totalTokens != want) failures += s"plan tokens ${plan.totalTokens} != sampled tokens $want"
    val seqs = plan.allSeqs
    val rowOrder = rows.groupBy(_.seqId).map { case (k, rs) => k -> rs.map(_.sampleId) }
    val placed = seqs.map(s => misplacedCount(rowOrder.getOrElse(s.seqId, Seq.empty), s.segments.map(_.id)))
    CheckResult(failures.result(), seqs.size, placed.count(_ > 0), seqs.map(_.segments.size.toLong).sum,
                placed.sum, rows.size.toLong, 0L, plan.totalTokens, 0L)
  }

  /** Delivery checks for the Spark path: every planned sequence arrives
    * with its planned samples (count and length multiset) and token total,
    * each consuming client gets its own CP chunk exactly once, PP>0
    * clients get no payload bytes. Segment order and CP routing are
    * counted, not failed, so known defects show as ratios.
    */
  def delivery(plan: StepPlan, delivered: Seq[Delivered], tree: ClientPlaceTree,
               broadcastDims: Set[String]): CheckResult = {
    val failures = Vector.newBuilder[String]
    val planned = (for {
      (bucket, b) <- plan.backboneCells.zipWithIndex
      (bin, m)    <- bucket.zipWithIndex
      seq         <- bin
    } yield (b, m, seq.seqId) -> seq).toMap
    val got = delivered.groupBy(d => (d.bucket, d.bin, d.seqId))
    val extra = got.keySet -- planned.keySet
    if (extra.nonEmpty) failures += s"${extra.size} delivered sequences not in the plan"
    val consumers = tree.bucketClients("DP").map(tree.broadcastFilter(_, broadcastDims))
    var mismatch = 0
    var misplaced = 0L
    var tokens = 0L
    planned.foreach { case (key @ (b, _, _), seq) =>
      got.get(key) match {
        case None => failures += s"planned sequence $key not delivered"
        case Some(rs) =>
          val d    = rs.head
          val lens = seq.segmentLens.toVector
          if (d.nSegments != lens.size || d.segLens.sorted != lens.sorted)
            failures += s"sequence $key samples differ from the plan"
          if (d.tokens != seq.tokens) failures += s"sequence $key tokens ${d.tokens} != ${seq.tokens}"
          val chunkSum = rs.groupBy(_.cpRank).values.map(_.head.chunkTokens).sum
          if (chunkSum != d.tokens) failures += s"sequence $key CP chunks hold $chunkSum of ${d.tokens} tokens"
          consumers(b).foreach { c =>
            val own = rs.count(r => r.rank == c.rank && r.cpRank == c.cp)
            if (own != 1) failures += s"client ${c.rank} got its chunk of $key $own times"
          }
          val wrong = misplacedCount(d.segLens, lens)
          if (wrong > 0) mismatch += 1
          misplaced += wrong
          tokens += d.tokens
      }
    }
    val ppBytes = delivered.count(d => d.pp > 0 && d.bytes != 0)
    if (ppBytes > 0) failures += s"$ppBytes rows sent payload bytes to PP>0 clients"
    val misrouted = delivered.count(d => tree.client(d.rank).cp != d.cpRank).toLong
    CheckResult(failures.result().distinct.take(20), planned.size, mismatch,
                planned.values.map(_.segments.size.toLong).sum, misplaced, delivered.size.toLong,
                misrouted, tokens, delivered.map(_.bytes).sum)
  }

  /** Positions of `planned` that `got` does not hold the same value at. */
  private def misplacedCount[T](got: Seq[T], planned: Seq[T]): Int =
    planned.indices.count(i => i >= got.size || got(i) != planned(i))
}
