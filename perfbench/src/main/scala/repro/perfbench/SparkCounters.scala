package repro.perfbench

import scala.collection.mutable

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}

/** Counters of one job group (one Spark phase of the pipeline). */
final class GroupCounters {
  var jobs = 0L
  var tasks = 0L
  var executorRunMs = 0L
  var executorCpuNs = 0L
  var gcMs = 0L
  var shuffleReadBytes = 0L
  var shuffleWriteBytes = 0L
}

/** Spark counters read from outside the program: a listener registered by the
  * benchmark attributes every job, and the tasks of its stages, to the job
  * group the benchmark set before calling into `repro.core`. This shows
  * passes such as `Trainer`'s extra `count()` and the shuffle volume without
  * editing the program.
  */
final class SparkCounters(sc: SparkContext) extends SparkListener {
  private val groupOfStage = mutable.HashMap.empty[Int, String]
  private val groupOfJob = mutable.HashMap.empty[Int, String]
  private val groups = mutable.HashMap.empty[String, GroupCounters]
  private val endedGroups = mutable.HashSet.empty[String]

  sc.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("none")
    val k = groups.getOrElseUpdate(g, new GroupCounters)
    k.jobs += 1
    e.stageIds.foreach(s => groupOfStage(s) = g)
    groupOfJob(e.jobId) = g
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val g = groups.getOrElseUpdate(groupOfStage.getOrElse(e.stageId, "none"), new GroupCounters)
    g.tasks += 1
    val m = e.taskMetrics
    if (m != null) {
      g.executorRunMs += m.executorRunTime
      g.executorCpuNs += m.executorCpuTime
      g.gcMs += m.jvmGCTime
      g.shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
      g.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    groupOfJob.remove(e.jobId).foreach(endedGroups += _)
  }

  /** Counters of `group` once every event posted before now has arrived:
    * the listener bus is asynchronous, so a marker job is run in a group of
    * its own and its end, delivered in order, means the earlier events are in.
    */
  def take(group: String): GroupCounters = {
    val marker = s"flush-$group-${System.nanoTime()}"
    sc.setJobGroup(marker, marker)
    try sc.parallelize(Seq(1), 1).count()
    finally sc.clearJobGroup()
    val deadline = System.nanoTime() + 30_000_000_000L
    while (!synchronized(endedGroups.contains(marker)) && System.nanoTime() < deadline) Thread.sleep(5)
    synchronized {
      groupOfStage.filterInPlace { case (_, g) => g != marker && g != group }
      groups.remove(marker)
      endedGroups.clear()
      groups.remove(group).getOrElse(new GroupCounters)
    }
  }
}
