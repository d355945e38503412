package stepbench

import java.io.File
import java.nio.file.Files
import java.util.Comparator
import org.apache.spark.sql.execution.exchange.Exchange
import org.apache.spark.sql.functions.col
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{ClientPlaceTree, Planner}

/** Runs scaled-down versions of the workloads end to end. */
class RunnerSpec extends AnyFunSuite {
  val benchDir = new File("target/test-bench")

  // Inputs cached by an earlier test run may come from other sources.
  private val dataDir = new File(benchDir, ".data").toPath
  if (Files.exists(dataDir))
    Files.walk(dataDir).sorted(Comparator.reverseOrder()).forEach(p => Files.delete(p))

  val coyo = Workloads.collateCoyo.copy(tree = ClientPlaceTree(pp = 2, dp = 2, cp = 2, tp = 2),
    samplesPerRank = 8, rowsPerSource = 200, window = 16, payloadCap = 256, setupReps = 1,
    detSteps = 4)
  val navit = Workloads.planNavit2k.copy(tree = ClientPlaceTree(pp = 1, dp = 16, cp = 1, tp = 2),
    samplesPerRank = 8, rowsPerSource = 32, window = 8, setupReps = 1, detSteps = 4)

  /** A traced run of the minimum step count, without warm-up. */
  def run(w: Workload, seed: Long): Runner = {
    val r = new Runner(w, seed, benchDir, traced = true, inputsKey = "test")
    try { r.setup(); r.loop(seconds = 0, warmupSeconds = 0) } finally r.close()
    r
  }

  val deterministicLayers = Seq(
    "core.plan_rows.rows", "data.pack.seqs", "core.planner.bucket_imbalance",
    "loader.collate.rows_scanned", "loader.collate.shuffle_exchanges",
    "loader.collate.broadcast_exchanges", "loader.collate.order_mismatch_seqs",
    "loader.deliver.rows", "loader.deliver.misrouted_rows")

  def deterministic(r: Runner): Map[String, Double] = {
    val e2e   = StepBench.endToEnd(r).metrics
    val layer = StepBench.perLayer(r).metrics
    (e2e.filter(m => m.name.endsWith("_frac") || m.name.startsWith("sim_")) ++
      layer.filter(m => deterministicLayers.contains(m.name))).map(m => m.name -> m.value).toMap
  }

  def plans(r: Runner) = r.measured.map(_.plan.map(Planner.planRows))

  for (w <- Seq(coyo, navit)) {
    test(s"${w.name}: the same seed gives identical buffers, plans and deterministic metrics") {
      val (a, b) = (run(w, 5), run(w, 5))
      assert(a.streams == b.streams)
      assert(plans(a) == plans(b))
      assert(deterministic(a) == deterministic(b))
      assert(a.measured.forall(!_.failed))
    }

    test(s"${w.name}: another seed gives different buffers") {
      assert(run(w, 5).streams != run(w, 6).streams)
    }
  }

  test("the reported ratios and counts are the ones the output checks made") {
    val r   = run(coyo, 5)
    val e2e = StepBench.endToEnd(r).metrics.map(m => m.name -> m.value).toMap
    val det = r.detWindow.map(_.check)
    assert(e2e("step_ok_frac") == r.measured.count(!_.failed).toDouble / r.measured.size)
    assert(e2e("seg_order_ok_frac") == 1.0 - det.map(_.misplaced).sum.toDouble / det.map(_.segs).sum)
    assert(e2e("cp_routed_ok_frac") == 1.0 - det.map(_.misrouted).sum.toDouble / det.map(_.rows).sum)
    val layer  = StepBench.perLayer(r).metrics.map(m => m.name -> m.value).toMap
    val traced = r.detWindow.filter(_.traced).map(_.check)
    assert(layer("loader.deliver.misrouted_rows") == traced.map(_.misrouted).sum.toDouble / traced.size)
    assert(layer("loader.collate.order_mismatch_seqs") == traced.map(_.orderMismatch).sum.toDouble / traced.size)
  }

  test("steps that fail are reported in the result instead of ending the run") {
    val r   = run(navit.copy(strategy = "no-such-strategy"), 5)
    val res = StepBench.endToEnd(r)
    assert(!res.correct && res.attempted == r.minSteps && res.failed == res.attempted)
    assert(res.metrics.find(_.name == "step_ok_frac").get.value == 0.0)
    assert(res.json.startsWith("{\"correct\": false"))
  }

  test("the exchange walk sees into adaptive stages and counts each exchange once") {
    val spark = Session.create(new File(benchDir, ".work"))
    try {
      def exchanges() = {
        val small = spark.range(100).withColumnRenamed("id", "k")
        val df = spark.range(100000).select((col("id") % 100).as("k"))
          .join(small, "k").groupBy((col("k") % 7).as("g")).count()
        df.collect()
        val plan = SparkCounters.executedPlan(df)
        // A plain walk stops at the adaptive plan's root.
        assert(plan.collect { case e: Exchange => e }.isEmpty)
        SparkCounters.exchanges(plan)
      }
      assert(exchanges() == SparkCounters.Exchanges(shuffles = 1, broadcasts = 1))
      spark.conf.set("spark.sql.autoBroadcastJoinThreshold", "-1")
      assert(exchanges() == SparkCounters.Exchanges(shuffles = 3, broadcasts = 0))
    } finally spark.stop()
  }
}
