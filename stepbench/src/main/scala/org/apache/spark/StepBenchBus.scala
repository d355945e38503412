package org.apache.spark

/** Waits until every event posted so far has reached the listeners.
  * Spark's listener bus is asynchronous and its drain hook is
  * package-private, so the benchmark reaches it from this package.
  */
object StepBenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
