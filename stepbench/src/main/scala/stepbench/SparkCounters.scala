package stepbench

import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.StepBenchBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.{BroadcastExchangeLike, ShuffleExchangeLike}

/** Spark-level counters read from outside the program: a listener sums
  * job, task, scan and shuffle metrics, and an AQE-aware plan walk counts
  * the exchanges of an executed query.
  */
final class SparkCounters(spark: SparkSession) extends SparkListener {
  import SparkCounters.Snapshot

  private val jobs         = new AtomicLong
  private val tasks        = new AtomicLong
  private val recordsRead  = new AtomicLong
  private val bytesRead    = new AtomicLong
  private val shuffleWrite = new AtomicLong

  spark.sparkContext.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    val m = e.taskMetrics
    if (m != null) {
      recordsRead.addAndGet(m.inputMetrics.recordsRead)
      bytesRead.addAndGet(m.inputMetrics.bytesRead)
      shuffleWrite.addAndGet(m.shuffleWriteMetrics.bytesWritten)
    }
  }

  /** Counter values once every event posted so far has been delivered. */
  def snapshot(): Snapshot = {
    StepBenchBus.drain(spark.sparkContext)
    Snapshot(jobs.get, tasks.get, recordsRead.get, bytesRead.get, shuffleWrite.get)
  }
}

object SparkCounters extends AdaptiveSparkPlanHelper {

  final case class Snapshot(jobs: Long, tasks: Long, recordsRead: Long, bytesRead: Long,
                            shuffleBytes: Long) {
    def -(o: Snapshot): Snapshot =
      Snapshot(jobs - o.jobs, tasks - o.tasks, recordsRead - o.recordsRead,
               bytesRead - o.bytesRead, shuffleBytes - o.shuffleBytes)
  }

  final case class Exchanges(shuffles: Int, broadcasts: Int)

  /** The physical plan Spark ran for `df` (its final adaptive plan once an
    * action has run).
    */
  def executedPlan(df: DataFrame): SparkPlan =
    df.asInstanceOf[org.apache.spark.sql.classic.Dataset[_]].queryExecution.executedPlan

  /** Exchanges in an executed plan. The walk descends into adaptive query
    * stages, which a plain `SparkPlan.collect` does not see, and counts
    * each exchange once (the plan string prints a stage and its exchange).
    */
  def exchanges(plan: SparkPlan): Exchanges = {
    val found = collectWithSubqueries(plan) {
      case s: ShuffleExchangeLike   => "shuffle"
      case b: BroadcastExchangeLike => "broadcast"
    }
    Exchanges(found.count(_ == "shuffle"), found.count(_ == "broadcast"))
  }
}
