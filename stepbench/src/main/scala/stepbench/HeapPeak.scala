package stepbench

import com.sun.management.GarbageCollectionNotificationInfo
import java.lang.management.{ManagementFactory, MemoryType}
import java.util.concurrent.atomic.AtomicLong
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import scala.jdk.CollectionConverters._

/** Peak JVM heap use since `reset`, read from garbage-collection
  * notifications: the largest heap occupancy a collection left behind,
  * i.e. the working set the program held. The occupancy just before a
  * collection is not used: it shows how far the collector let the heap
  * fill, which the heap size sets. Nor are per-pool peak counters: summed,
  * they add peaks reached at different times.
  */
object HeapPeak {
  private val heapPools =
    ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP).map(_.getName).toSet
  private val peak = new AtomicLong

  private val listener = new NotificationListener {
    def handleNotification(n: Notification, handback: Any): Unit =
      if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
        val after = info.getGcInfo.getMemoryUsageAfterGc.asScala.collect {
          case (pool, u) if heapPools(pool) => u.getUsed
        }.sum
        peak.accumulateAndGet(after, math.max)
      }
  }

  ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
    case e: NotificationEmitter => e.addNotificationListener(listener, null, null)
    case _                      =>
  }

  private def used: Long = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed

  def reset(): Unit = peak.set(0)

  /** Falls back to the current occupancy when no collection ran. */
  def mib: Double = (if (peak.get > 0) peak.get else used).toDouble / (1 << 20)
}
