package stepbench

import java.io.File
import java.util.concurrent.Executors
import org.apache.spark.sql.SparkSession
import repro.core.SampleMeta
import repro.data.{MultiSourceGen, SourceSpec}
import scala.concurrent.duration.Duration
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.util.Random

/** SparkSession construction for the benchmark. Join and shuffle settings
  * stay at Spark's defaults (what `jobs/` runs under `spark-submit`); only
  * the master, the UI and the scratch locations are set.
  */
object Session {
  /** Two task threads leave the machine's other cores to the driver, the
    * JIT and GC threads; with all four busy, run-to-run step times spread
    * about four times wider on a shared 4-core machine.
    */
  def cores: Int = math.min(2, Runtime.getRuntime.availableProcessors())

  def create(work: File, extra: Map[String, String] = Map.empty): SparkSession = {
    val b = SparkSession.builder
      .master(s"local[$cores]")
      .appName("stepbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", new File(work, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(work, "warehouse").getAbsolutePath)
    extra.foldLeft(b) { case (acc, (k, v)) => acc.config(k, v) }.getOrCreate()
  }
}

/** Workload inputs, made from the seed through the program's public
  * generators only.
  */
object Inputs {
  val FilesPerSource = 4

  /** Directory holding one Parquet dataset per source for (workload, seed),
    * written once and reused by later runs with the same seed and `key`.
    * `key` names the sources the inputs were generated by (run.py passes a
    * hash of the program and benchmark sources), and the directory name
    * also holds the workload's input parameters, so a change to either
    * regenerates the inputs. Each source is written as `FilesPerSource`
    * files, so a scan splits into equal tasks.
    */
  def ensureParquet(w: Workload, seed: Long, dataRoot: File, work: File, key: String): File = {
    val params = s"$key-sources${w.group.sources.size}-rows${w.rowsPerSource}-cap${w.payloadCap}"
    val dir    = new File(dataRoot, s"${w.name}/$params/seed-$seed")
    val done = new File(dir, "_COMPLETE")
    if (!done.exists()) {
      // A fixed range parallelism keeps the generated rows a function of the
      // seed alone (Spark seeds `rand` per partition).
      val spark = Session.create(work, Map("spark.sql.leafNodeDefaultParallelism" -> FilesPerSource.toString))
      val pool  = Executors.newFixedThreadPool(Session.cores)
      implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
      try {
        val writes = w.group.sources.map { spec =>
          Future {
            MultiSourceGen.withPayload(MultiSourceGen.sourceDf(spark, spec, w.rowsPerSource, seed),
                                       w.payloadCap)
              .write.mode("overwrite")
              .parquet(s"${dir.getPath}/${spec.name}")
          }
        }
        Await.result(Future.sequence(writes), Duration.Inf)
      } finally {
        pool.shutdown()
        spark.stop()
      }
      done.createNewFile()
    }
    dir
  }

  /** Driver-side sample metadata per source (workloads without Spark). */
  def driverMetas(w: Workload, seed: Long): Vector[Vector[SampleMeta]] =
    w.group.sources.map(MultiSourceGen.sampleMetas(_, w.rowsPerSource, seed)).toVector

  /** The order a source's shuffle buffer hands out its samples: a seeded
    * shuffle, never id order.
    */
  def arrivalOrder(spec: SourceSpec, metas: Seq[SampleMeta], seed: Long): Vector[SampleMeta] =
    new Random(seed * 1000003L + spec.id).shuffle(metas.toVector)
}

/** The Source Loaders' read buffers as the Planner sees them: each source
  * exposes the next `window` samples of its arrival stream; the samples a
  * step draws are popped, and the stream wraps around at its end.
  */
final class LoaderBuffer(streams: Vector[Vector[SampleMeta]], window: Int) {
  require(streams.forall(_.size >= window), "a source holds fewer samples than its buffer window")
  private val cursor = Array.fill(streams.size)(0)
  private val index  = streams.zipWithIndex.map { case (s, i) => s.head.source -> i }.toMap

  def view: Vector[SampleMeta] =
    streams.indices.flatMap { i =>
      val s = streams(i)
      (0 until window).map(k => s((cursor(i) + k) % s.size))
    }.toVector

  /** Pops the drawn samples (a per-source prefix of the view). */
  def consume(drawn: Seq[SampleMeta]): Unit =
    drawn.groupBy(_.source).foreach { case (src, xs) =>
      val i = index(src)
      cursor(i) = (cursor(i) + xs.size) % streams(i).size
    }
}
