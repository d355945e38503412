package stepbench

import java.io.File
import java.lang.management.ManagementFactory
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.col
import repro.autoscale.MixtureScaler
import repro.core._
import repro.costmodel.ModelConfigs
import repro.data.Packing
import repro.loader.{DataConstructor, SourceLoader}
import repro.sim.TrainSim
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** What one loop step produced, with its checks. */
final case class StepRecord(
    t: Int,
    measured: Int,
    traced: Boolean,
    stepMs: Double,
    sampled: Vector[SampleMeta],
    shortfall: Int,
    scaleEvents: Int,
    plan: Option[StepPlan],
    check: CheckResult,
    error: Option[String],
) {
  def failed: Boolean = error.nonEmpty || check.failures.nonEmpty
}

/** Drives one workload's data-plane step in a closed loop with one client.
  *
  * One step: loader buffer -> `MixSampler.draw` -> `MixtureScaler.observe`
  * -> `Planner.byName` -> `Planner.planRows`, and on Spark workloads
  * `DataConstructor.collate` -> `cpSlice` -> `deliver` materialised by one
  * Spark action. `TrainSim.simulate`, the output checks and the traced
  * run's probes run outside the timed step.
  */
final class Runner(val w: Workload, val seed: Long, benchDir: File, traced: Boolean, inputsKey: String) {
  val minSteps      = math.max(w.detSteps, 11)
  var warmupSteps   = 0
  val broadcastDims = Set("TP")
  private val bb  = ModelConfigs.Llama12B
  private val enc = ModelConfigs.ViT1B

  private val work     = new File(benchDir, ".work")
  private val dataRoot = new File(benchDir, ".data")
  val tracer = new Tracer

  private var spark: SparkSession           = _
  private var loaderOutputs: Seq[DataFrame] = Seq.empty
  private var counters: SparkCounters       = _
  /** Each source's samples in arrival order (the loader buffers' input). */
  var streams: Vector[Vector[SampleMeta]] = Vector.empty
  private var buffer: LoaderBuffer          = _
  private var scaler: MixtureScaler         = _

  val setupSec   = ArrayBuffer.empty[Double]
  val records    = ArrayBuffer.empty[StepRecord]
  val sims       = ArrayBuffer.empty[TrainSim.IterResult]
  /** Per traced step (by loop index), layer counters. */
  val layerStats = ArrayBuffer.empty[(Int, Map[String, Double])]
  var peakHeapMb = 0.0

  // ---------------------------------------------------------------- set-up

  /** One set-up; returns each source's metadata in id order. On Spark
    * workloads: SparkSession start + Source Loader construction + the
    * initial `bufferMetadata` read. The planner workload starts no Spark;
    * its loaders' metadata is the driver-side `MultiSourceGen.sampleMetas`.
    */
  private def setupOnce(rep: Int, dataDir: Option[File]): Seq[Seq[SampleMeta]] = {
    tracer.step = -1 - rep
    tracer.span("setup") {
      dataDir match {
        case Some(dir) =>
          if (spark != null) spark.stop()
          spark = tracer.span("spark.session")(Session.create(work))
          val loaders = tracer.span("loader.construct") {
            val ls = w.group.sources.map(SourceLoader(_, dir.getPath))
            loaderOutputs = ls.map(_.transformed(spark))
            ls
          }
          tracer.span("loader.buffer_meta")(loaders.map(_.bufferMetadata(spark, w.rowsPerSource)))
        case None =>
          tracer.span("loader.buffer_meta")(Inputs.driverMetas(w, seed))
      }
    }
  }

  def setup(): Unit = {
    val dataDir = if (w.collate) Some(Inputs.ensureParquet(w, seed, dataRoot, work, inputsKey)) else None
    tracer.enabled = traced
    var metas: Seq[Seq[SampleMeta]] = Seq.empty
    (0 until w.setupReps).foreach { rep =>
      val t0 = System.nanoTime()
      metas = setupOnce(rep, dataDir)
      setupSec += (System.nanoTime() - t0) / 1e9
    }
    tracer.enabled = false
    if (spark != null) counters = new SparkCounters(spark)
    streams = w.group.sources.zip(metas)
      .map { case (spec, ms) => Inputs.arrivalOrder(spec, ms, seed) }.toVector
  }

  /** Fresh loader buffers and scaler, so measured steps see the same inputs
    * however many warm-up steps ran before them.
    */
  private def resetState(): Unit = {
    buffer = new LoaderBuffer(streams, w.window)
    scaler = new MixtureScaler(w.group.sources.map(_.name -> 1).toMap)
  }

  // ------------------------------------------------------------------ step

  private def action(rows: Seq[PlanRow]): Array[Row] = tracer.span("loader.step") {
    val coll = tracer.span("loader.collate.build") {
      DataConstructor.collate(spark, loaderOutputs, rows, w.ctx)
    }
    val sliced = tracer.span("loader.cp_slice.build")(DataConstructor.cpSlice(coll, w.ctx, w.tree.cp))
    val del = tracer.span("loader.deliver.build") {
      DataConstructor.deliver(spark, sliced, w.tree, broadcastDims)
    }
    tracer.span("loader.action")(del.select(Delivered.columns.map(col): _*).collect())
  }

  private def runStep(t: Int, measured: Int, traceThis: Boolean): StepRecord = {
    tracer.enabled = traceThis
    tracer.step = t
    val view = buffer.view
    var sampled = Vector.empty[SampleMeta]
    var shortfall = 0
    var events = 0
    var plan: Option[StepPlan] = None
    var rows: Seq[PlanRow] = Seq.empty
    var delivered: Option[Array[Row]] = None
    val before = if (traceThis && w.collate) Some(counters.snapshot()) else None
    val gc0 = gcMs()
    val t0 = System.nanoTime()
    val error = try {
      tracer.span("step") {
        val (s, sf) = tracer.span("core.mix")(MixSampler.draw(view, w.schedule, w.scheduleStep(t), w.batch))
        sampled = s; shortfall = sf.values.sum
        events = tracer.span("autoscale.observe")(scaler.observe(w.schedule, w.scheduleStep(t))).size
        val p = tracer.span("core.planner") {
          Planner.byName(w.strategy, s, w.tree, w.ctx, w.nBins, bb, enc)
        }
        plan = Some(p)
        rows = tracer.span("core.plan_rows")(Planner.planRows(p))
        if (w.collate) delivered = Some(action(rows))
      }
      None
    } catch { case NonFatal(e) => Some(describe(e)) }
    val stepMs = (System.nanoTime() - t0) / 1e6
    val gcStep = gcMs() - gc0
    buffer.consume(sampled)

    // Work after the step runs only on a step without error; an exception in
    // it fails the step instead of ending the run.
    var rec = StepRecord(t, measured, traceThis, stepMs, sampled, shortfall, events, plan,
                         CheckResult.empty, error)
    def afterStep(what: String)(body: => StepRecord): Unit =
      if (rec.error.isEmpty) {
        try rec = body catch { case NonFatal(e) => rec = rec.copy(error = Some(s"$what: ${describe(e)}")) }
      }
    afterStep("check") {
      val p  = plan.get
      val pc = Checks.plan(sampled, p, rows, w.ctx)
      rec.copy(check = delivered.map { d =>
        val dc = Checks.delivery(p, d.toSeq.map(Delivered.fromRow), w.tree, broadcastDims)
        dc.copy(failures = pc.failures ++ dc.failures)
      }.getOrElse(pc))
    }
    afterStep("sim") {
      // Warm-up steps simulate too: the JIT then compiles TrainSim before the
      // measured steps, instead of recompiling shared code in the middle of them.
      if (measured < w.detSteps) {
        val sim = tracer.span("sim.train")(TrainSim.simulate(plan.get, bb, enc))
        if (measured >= 0) sims += sim
      }
      rec
    }
    if (traceThis) afterStep("probe") {
      val actionCounts = before.map(b => counters.snapshot() - b)
      layerStats += t -> (probes(rec, rows, actionCounts) + ("jvm.gc_ms" -> gcStep))
      rec
    }
    tracer.enabled = false
    rec
  }

  private def describe(e: Throwable): String = s"${e.getClass.getSimpleName}: ${e.getMessage}"

  /** Layer counters of a traced step plus probe calls outside the step:
    * first-fit packing of the step's draw, and collate materialised alone.
    */
  private def probes(r: StepRecord, rows: Seq[PlanRow],
                     action: Option[SparkCounters.Snapshot]): Map[String, Double] = {
    val p = r.plan.get
    val seqs = tracer.span("data.pack")(Packing.firstFit(r.sampled, w.ctx))
    val bbCost  = CostFns.backbone(bb)
    val encCost = CostFns.encoder(enc)
    val cellCost = p.backboneCells.map(_.map(_.map(bbCost).sum))
    val rankCost = p.encoderCells.map(_.map(_.map(encCost).sum).sum)
    val base = Map(
      "core.mix.samples"             -> r.sampled.size.toDouble,
      "core.mix.shortfall"           -> r.shortfall.toDouble,
      "data.pack.efficiency"         -> Packing.efficiency(seqs, w.ctx),
      "data.pack.padding_tokens"     -> seqs.map(_.padding(w.ctx)).sum.toDouble,
      "data.pack.seqs"               -> seqs.size.toDouble,
      "core.planner.bucket_imbalance"  -> maxOverMean(cellCost.map(_.sum)),
      "core.planner.bin_imbalance"     -> maxOverMean(cellCost.flatten),
      "core.planner.encoder_imbalance" -> maxOverMean(rankCost),
      "core.plan_rows.rows"          -> rows.size.toDouble,
      "autoscale.scale_events"       -> r.scaleEvents.toDouble,
    )
    val spark = action.map { a =>
      val c0 = counters.snapshot()
      val coll = tracer.span("loader.collate") {
        val df = DataConstructor.collate(this.spark, loaderOutputs, rows, w.ctx)
        df.collect()
        df
      }
      val c = counters.snapshot() - c0
      val ex = SparkCounters.exchanges(SparkCounters.executedPlan(coll))
      Map(
        "spark.jobs"                        -> a.jobs.toDouble,
        "spark.tasks"                       -> a.tasks.toDouble,
        "loader.collate.rows_scanned"       -> c.recordsRead.toDouble,
        "loader.collate.bytes_scanned"      -> c.bytesRead.toDouble,
        "loader.collate.scan_efficiency"    -> rows.size.toDouble / math.max(1L, c.recordsRead),
        "loader.collate.shuffle_exchanges"  -> ex.shuffles.toDouble,
        "loader.collate.broadcast_exchanges" -> ex.broadcasts.toDouble,
        "loader.collate.shuffle_bytes"      -> c.shuffleBytes.toDouble,
        "loader.collate.order_mismatch_seqs" -> r.check.orderMismatch.toDouble,
        "loader.deliver.rows"               -> r.check.rows.toDouble,
        "loader.deliver.bytes"              -> r.check.bytes.toDouble,
        "loader.deliver.misrouted_rows"     -> r.check.misrouted.toDouble,
      )
    }.getOrElse(Map.empty)
    base ++ spark
  }

  private def maxOverMean(xs: Seq[Double]): Double = {
    val mean = xs.sum / math.max(1, xs.size)
    if (mean == 0) 1.0 else xs.max / mean
  }

  private def gcMs(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.toDouble).sum

  // ------------------------------------------------------------------ loop

  /** Warm-up steps, then measured steps from fresh state until `seconds`
    * have passed and at least `minSteps` were measured. In the traced run
    * every other measured step is traced, so the run also yields the
    * tracing overhead.
    */
  def loop(seconds: Double, warmupSeconds: Double = Runner.WarmupSeconds): Unit = {
    HeapPeak.reset()
    resetState()
    val warm = System.nanoTime()
    while (warmupSteps < 3 || (System.nanoTime() - warm) / 1e9 < warmupSeconds) {
      records += runStep(warmupSteps, -1, traceThis = false)
      warmupSteps += 1
    }
    resetState()
    val start = System.nanoTime()
    var m = 0
    while (m < minSteps || (System.nanoTime() - start) / 1e9 < seconds) {
      records += runStep(m, m, traceThis = traced && m % 2 == 0)
      m += 1
    }
    peakHeapMb = HeapPeak.mib
  }

  def close(): Unit = if (spark != null) spark.stop()

  def measured: Seq[StepRecord] = records.filter(_.measured >= 0).toSeq
  def detWindow: Seq[StepRecord] = measured.filter(_.measured < w.detSteps)
}

object Runner {
  /** Warm-up runs at least this long (and 3 steps): step times keep falling
    * for ~10 s while the JIT compiles the scan and planning paths.
    */
  val WarmupSeconds = 10.0
}

object StepBench {

  final case class Metric(name: String, value: Double, unit: String)

  final case class Result(attempted: Int, failed: Int, metrics: Seq[Metric], notes: Seq[String]) {
    def correct: Boolean = failed == 0
    def json: String = {
      val ms = metrics.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""")
      s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
    }
  }

  private def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"metric value $x is not finite")
    java.lang.Double.toString(x)
  }

  /** End-to-end metrics of an untraced run. Step times are those of the
    * steps that passed; when fewer than `minSteps` passed, they are those
    * of every measured step, so a failing program is still reported, with
    * `correct` false.
    */
  def endToEnd(r: Runner): Result = {
    val ok    = r.measured.filterNot(_.failed)
    val times = (if (ok.size >= r.minSteps) ok else r.measured).map(_.stepMs)
    // At least minSteps (>= 11) times, so some percentile has 10 beyond it.
    val tail  = Stats.tail(times).get
    val det   = r.detWindow
    val metrics = Seq(
      Metric("setup_s", Stats.median(r.setupSec.toSeq), "s"),
      Metric("step_p50_ms", Stats.median(times), "ms"),
      Metric("step_tail_ms", tail.value, "ms"),
      Metric("tokens_per_s", ok.map(_.check.tokens).sum / (times.sum / 1e3), "tok/s"),
      Metric("sim_train_tokens_per_s",
             r.sims.map(_.throughputTokPerSec).sum / math.max(1, r.sims.size), "tok/s"),
      Metric("peak_heap_mb", r.peakHeapMb, "MiB"),
      Metric("step_ok_frac", ok.size.toDouble / r.measured.size, "ratio"),
      Metric("seg_order_ok_frac",
             1.0 - det.map(_.check.misplaced).sum.toDouble / math.max(1L, det.map(_.check.segs).sum), "ratio"),
      Metric("cp_routed_ok_frac",
             1.0 - det.map(_.check.misrouted).sum.toDouble / math.max(1L, det.map(_.check.rows).sum), "ratio"),
    )
    val notes = Seq(
      s"step_tail_ms is p${tail.percentile} of ${tail.samples} measured steps " +
        s"(${r.warmupSteps} warm-up steps excluded)",
      s"setup_s is the median of ${r.setupSec.size} set-ups: " + r.setupSec.map(s => f"$s%.3f").mkString(" "),
      s"deterministic metrics cover the first ${r.w.detSteps} measured steps",
      "step ms: " + r.records.map(x => f"${x.stepMs}%.0f").mkString(" "),
      s"sequences with any segment out of pack order: ${det.map(_.check.orderMismatch).sum} of " +
        s"${det.map(_.check.seqs).sum}",
    )
    Result(r.measured.size, r.measured.count(_.failed), metrics, notes)
  }

  /** Per-layer metric names, units and the direction that is better. */
  val layerMetrics: Seq[(String, String, String)] = Seq(
    ("core.mix.ms", "ms", "lower"), ("core.mix.samples", "count", "higher"),
    ("core.mix.shortfall", "count", "lower"),
    ("data.pack.ms", "ms", "lower"), ("data.pack.efficiency", "ratio", "higher"),
    ("data.pack.padding_tokens", "tokens", "lower"), ("data.pack.seqs", "count", "lower"),
    ("core.planner.ms", "ms", "lower"), ("core.planner.bucket_imbalance", "ratio", "lower"),
    ("core.planner.bin_imbalance", "ratio", "lower"), ("core.planner.encoder_imbalance", "ratio", "lower"),
    ("core.plan_rows.ms", "ms", "lower"), ("core.plan_rows.rows", "count", "higher"),
    ("loader.collate.ms", "ms", "lower"), ("loader.collate.rows_scanned", "count", "lower"),
    ("loader.collate.bytes_scanned", "bytes", "lower"), ("loader.collate.scan_efficiency", "ratio", "higher"),
    ("loader.collate.shuffle_exchanges", "count", "lower"),
    ("loader.collate.broadcast_exchanges", "count", "lower"),
    ("loader.collate.shuffle_bytes", "bytes", "lower"),
    ("loader.collate.order_mismatch_seqs", "count", "lower"),
    ("loader.deliver.ms", "ms", "lower"), ("loader.deliver.rows", "count", "lower"),
    ("loader.deliver.bytes", "bytes", "lower"), ("loader.deliver.misrouted_rows", "count", "lower"),
    ("loader.buffer_meta.ms", "ms", "lower"), ("spark.jobs", "count", "lower"),
    ("spark.tasks", "count", "lower"),
    ("autoscale.observe.ms", "ms", "lower"), ("autoscale.scale_events", "count", "lower"),
    ("sim.train.ms", "ms", "lower"), ("sim.gpu_imbalance", "ratio", "lower"),
    ("jvm.gc_ms", "ms", "lower"),
    ("step.traced_ms", "ms", "lower"), ("step.planner_share", "ratio", "lower"),
    ("step.loader_share", "ratio", "lower"), ("setup.buffer_meta_share", "ratio", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
  )

  /** Per-layer metrics of a traced run. Times are per-step medians of span
    * self time (wall time for spans whose children are plan building);
    * counts are means over the traced steps of the deterministic window.
    */
  def perLayer(r: Runner): Result = {
    val self = r.tracer.selfMsByStep
    val wall = r.tracer.wallMsByStep
    val tracedSteps = r.measured.filter(_.traced).map(_.t)
    def med(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else Stats.median(xs)
    def selfMed(name: String, steps: Seq[Int] = tracedSteps): Double =
      med(steps.map(t => self.getOrElse(t, Map.empty).getOrElse(name, 0.0)))
    def wallOf(t: Int, name: String): Double = wall.getOrElse(t, Map.empty).getOrElse(name, 0.0)
    def wallMed(name: String): Double = med(tracedSteps.map(wallOf(_, name)))
    val setupSteps = (0 until r.w.setupReps).map(rep => -1 - rep)
    val detTraced = r.detWindow.filter(_.traced).map(_.t).toSet
    val stats = r.layerStats.toSeq.collect { case (t, s) if detTraced(t) => s }
    def mean(name: String): Double =
      if (stats.isEmpty) 0.0 else stats.map(_.getOrElse(name, 0.0)).sum / stats.size
    val tracedMs   = r.measured.filter(s => s.traced && !s.failed).map(_.stepMs)
    val untracedMs = r.measured.filter(s => !s.traced && !s.failed).map(_.stepMs)
    val setupWall  = setupSteps.map(t => wallOf(t, "setup"))
    val values: Map[String, Double] = Map(
      "core.mix.ms"          -> selfMed("core.mix"),
      "data.pack.ms"         -> selfMed("data.pack"),
      "core.planner.ms"      -> wallMed("core.planner"),
      "core.plan_rows.ms"    -> selfMed("core.plan_rows"),
      "loader.collate.ms"    -> wallMed("loader.collate"),
      "loader.deliver.ms"    -> med(tracedSteps.map(t => wallOf(t, "loader.step") - wallOf(t, "loader.collate"))),
      "loader.buffer_meta.ms" -> med(setupSteps.map(t => wallOf(t, "loader.buffer_meta"))),
      "autoscale.observe.ms" -> selfMed("autoscale.observe"),
      // Plans are simulated in the deterministic window only.
      "sim.train.ms"         -> selfMed("sim.train", detTraced.toSeq),
      "sim.gpu_imbalance"    -> r.sims.map(_.gpuImbalance).sum / math.max(1, r.sims.size),
      "step.traced_ms"       -> med(tracedMs),
      "step.planner_share"   -> med(tracedSteps.map(t => wallOf(t, "core.planner") / wallOf(t, "step"))),
      "step.loader_share"    -> med(tracedSteps.map(t => wallOf(t, "loader.step") / wallOf(t, "step"))),
      "setup.buffer_meta_share" -> med(setupSteps.map(t => wallOf(t, "loader.buffer_meta") / wallOf(t, "setup"))),
      "trace.overhead_ms"    -> (med(tracedMs) - med(untracedMs)),
    ) ++ stats.flatMap(_.keys).distinct.map(n => n -> mean(n))
    val metrics = layerMetrics.map { case (n, u, _) => Metric(n, values.getOrElse(n, 0.0), u) }
    val notes = Seq(s"${tracedSteps.size} traced and ${untracedMs.size} untraced measured steps; " +
                    s"setup_s wall per set-up: " + setupWall.map(s => f"${s / 1e3}%.3f").mkString(" "))
    Result(r.measured.size, r.measured.count(_.failed), metrics, notes)
  }

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean, benchDir: File,
                        inputsKey: String)

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
         new File(need("bench-dir")), need("inputs-key"))
  }

  def main(argv: Array[String]): Unit = {
    val a = parse(argv)
    val w = Workloads.byName(a.workload)
    val r = new Runner(w, a.seed, a.benchDir, a.trace, a.inputsKey)
    val result = try {
      r.setup()
      r.loop(a.seconds)
      if (a.trace) {
        r.tracer.write(new File(a.benchDir, s"out/trace-${w.name}-seed${a.seed}.jsonl"))
        perLayer(r)
      } else endToEnd(r)
    } finally r.close()
    r.measured.filter(_.failed).take(3).foreach { s =>
      println(s"# step ${s.t} failed: ${(s.error.toSeq ++ s.check.failures).mkString("; ")}")
    }
    println(s"# workload=${w.name} seed=${a.seed} trace=${if (a.trace) 1 else 0} cores=${Session.cores} " +
            s"warmup_steps=${r.warmupSteps} measured_steps=${r.measured.size} det_steps=${w.detSteps}")
    result.notes.foreach(n => println(s"# $n"))
    result.metrics.foreach(m => println(f"# ${m.name}%-36s ${m.value}%.6g ${m.unit}"))
    println(result.json)
  }
}
