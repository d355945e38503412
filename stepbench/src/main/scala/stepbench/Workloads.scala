package stepbench

import repro.core.{ClientPlaceTree, MixSchedule, StaticMix}
import repro.data.{DatasetGroup, SourceCatalog}

/** One benchmark workload: the data-plane step a single trainer client
  * requests in a closed loop (step t+1 is asked for only once step t is
  * delivered).
  *
  * @param rowsPerSource samples each source holds; Spark workloads write
  *                      them as one Parquet file per source
  * @param window        samples a source's loader buffer exposes per step
  * @param payloadCap    `withPayload` byte cap per row (Spark workloads)
  * @param collate       whether the step runs the Spark Data Constructor
  *                      (collate -> cpSlice -> deliver) after `planRows`
  * @param setupReps     set-ups per run; `setup_s` is their median
  * @param detSteps      measured steps over which deterministic metrics
  *                      (plan quality, output checks) are computed; the
  *                      schedule repeats with this period
  */
final case class Workload(
    name: String,
    group: DatasetGroup,
    tree: ClientPlaceTree,
    ctx: Long,
    nBins: Int,
    strategy: String,
    samplesPerRank: Int,
    rowsPerSource: Int,
    window: Int,
    payloadCap: Int,
    collate: Boolean,
    schedule: MixSchedule,
    setupReps: Int,
    detSteps: Int,
) {
  def batch: Int = tree.dp * samplesPerRank
  /** Schedule step of loop step `t`: the schedule cycles every `detSteps`. */
  def scheduleStep(t: Int): Int = t % detSteps
}

object Workloads {

  private def relSizeMix(g: DatasetGroup): Map[String, Double] =
    g.sources.map(s => s.name -> s.relSize).toMap

  /** Central Planner at the paper's scale: 2,048 GPUs, ~13k samples/step
    * over 306 sources. The step stops at `planRows` (no Spark action).
    * 16 samples per DP rank rather than 32 keeps a step near 0.6 s, so a run
    * takes its median over enough steps to be steady on a shared machine.
    */
  val planNavit2k: Workload = {
    val g  = SourceCatalog.navitData
    val tr = ClientPlaceTree(pp = 1, dp = 1024, cp = 1, tp = 2)
    val window = tr.dp * 16 / g.sources.size + 8
    Workload("plan-navit-2k", g, tr, ctx = 16384, nBins = 8, strategy = "hybrid",
      samplesPerRank = 16, rowsPerSource = 4 * window, window = window, payloadCap = 0,
      collate = false, schedule = StaticMix(relSizeMix(g)), setupReps = 15,
      detSteps = 12)
  }

  /** Bytes-bound Constructor path: every step scans all payload of five
    * sources to deliver a few percent of their rows; PP>1 and CP>1 exercise
    * `cpSlice` and metadata-only delivery. Payloads are capped at 16 KiB
    * (uncapped coyo rows are 0.5-1 MiB) to keep a step under a second.
    */
  val collateCoyo: Workload = {
    val g = SourceCatalog.coyo700m
    Workload("collate-coyo", g, ClientPlaceTree(pp = 2, dp = 8, cp = 2, tp = 2), ctx = 16384,
      nBins = 4, strategy = "hybrid", samplesPerRank = 24, rowsPerSource = 2000, window = 64,
      payloadCap = 16 << 10, collate = true, schedule = StaticMix(relSizeMix(g)), setupReps = 3,
      detSteps = 12)
  }

  val all: Seq[Workload] = Seq(planNavit2k, collateCoyo)

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name (known: ${all.map(_.name).mkString(", ")})"))
}
