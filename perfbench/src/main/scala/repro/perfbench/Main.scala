package repro.perfbench

import java.nio.file.Paths
import scala.collection.mutable

import org.apache.spark.sql.SparkSession

import repro.core._

/** Benchmark entry point.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
  * }}}
  *
  * Set-up generates the workload's inputs from the seed, starts a
  * `local[nproc]` SparkSession, trains M0 and M1 and warms up. With
  * `--trace 0`, rounds of the batch parse and the Spark pipeline then run
  * until `--seconds` have passed, followed by one untimed online phase and the
  * grouping-accuracy sets, and the last stdout line holds the end-to-end
  * metrics. With `--trace 1`, rounds of the traced composition of all three
  * phases run instead, and the last line holds the per-layer metrics (spans
  * are written to `<out>/trace-<workload>-<seed>.json`).
  */
object Main {

  /** Set-up is repeated this many times and its median reported. */
  val SetupReps = 3

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val w = opts.get("workload").flatMap(Workloads.byName).getOrElse {
      Console.err.println(s"unknown workload; one of: ${Workloads.all.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    val seed = opts.getOrElse("seed", "1").toLong
    val seconds = opts.getOrElse("seconds", "10").toDouble
    val trace = opts.getOrElse("trace", "0") == "1"
    val outDir = Paths.get(opts.getOrElse("out", "."))
    val nproc = Runtime.getRuntime.availableProcessors()
    val c = new Checker

    val tSession = System.nanoTime()
    val spark = SparkSession.builder.master(s"local[$nproc]").appName("perfbench")
      .config("spark.ui.enabled", value = false)
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    try {
      val sessionS = (System.nanoTime() - tSession) / 1e9
      val (st, setupS) = setUp(w, seed, nproc, spark, sessionS)
      val phases = new Phases(w, st, spark, nproc, c)
      val tWarm = System.nanoTime()
      phases.warmUp()
      val warmS = (System.nanoTime() - tWarm) / 1e9
      Console.err.println(f"setup: warm-up $warmS%.2f s")
      val setupAllS = setupS + warmS
      val line =
        if (trace) traced(w, seed, seconds, phases, st, spark, c, outDir)
        else untraced(w, seed, seconds, phases, setupAllS, c)
      println(line)
    } finally spark.stop()
  }

  /** Generate, train M0 and M1 and cache the Spark input, [[SetupReps]]
    * times (the first repetition also warms the JIT). Returns the last state
    * and the set-up time so far: session start + median repetition.
    */
  private def setUp(w: Workload, seed: Long, nproc: Int, spark: SparkSession, sessionS: Double): (State, Double) = {
    val cfg = ByteBrainConfig()
    var st: State = null
    val reps = (1 to SetupReps).map { _ =>
      val t0 = System.nanoTime()
      if (st != null) st.df.unpersist(blocking = true)
      val in = Workloads.generate(w, seed)
      // the online service loads M0 from its serialized form, built on one
      // thread in a fixed order rather than by the parse's worker threads
      val m0 = ModelCodec.deserialize(ModelCodec.serialize(ByteBrain.parseLocalRaw(in.batch, cfg, nproc)._1))
      val (m1, _) = ByteBrain.parseLocalRaw(in.stream, cfg, nproc)
      // four partitions per core, so a task slowed by the shared host is
      // balanced by the others instead of holding up the whole stage
      val df = spark.createDataFrame(in.batch.zipWithIndex.map { case (l, i) => (i.toLong, l) })
        .toDF("log_id", "message").repartition(4 * nproc).cache()
      df.count()
      st = State(in, m0, m1, df)
      (System.nanoTime() - t0) / 1e9
    }
    Console.err.println(f"setup: session $sessionS%.2f s, repetitions ${reps.map(x => f"$x%.2f").mkString(" ")} s")
    (st, sessionS + Stats.median(reps))
  }

  /** Two rounds, then more while another round like the last one still fits
    * in the budget. The first round also runs the costly checks, so the
    * second, not the first, tells how long a round takes. Returns the seconds
    * of each round.
    */
  private def rounds(seconds: Double)(round: Int => Unit): Seq[Double] = {
    val t0 = System.nanoTime()
    val took = mutable.ArrayBuffer.empty[Double]
    def elapsed = (System.nanoTime() - t0) / 1e9
    while (took.size < 2 || elapsed + took.last <= seconds) {
      val tr = System.nanoTime()
      round(took.size)
      took += (System.nanoTime() - tr) / 1e9
    }
    took.toSeq
  }

  private def untraced(w: Workload, seed: Long, seconds: Double, p: Phases, setupS: Double, c: Checker): String = {
    val seq, sQuery = mutable.ArrayBuffer.empty[Double]
    val nBatch = p.batchLines.toDouble
    val took = rounds(seconds) { r =>
      seq ++= p.batch().map(nBatch / _)
      sQuery ++= p.sparkPipeline(first = r == 0).queryS.map(nBatch / _)
    }
    // untimed, so after the rounds, outside the time budget: one checked
    // online phase, whose merged model is the same in every round
    val modelBytes = ModelCodec.sizeInBytes(p.online()).toDouble
    val ga = p.groupingAccuracy(Workloads.gaBatches(w, seed))
    Console.err.println(s"rounds: ${took.map(x => f"$x%.1f").mkString(" ")} s; samples: parse=${seq.size} " +
      s"spark query=${sQuery.size}")
    val m = Seq(
      "parse_seq_logs_per_s" -> Stats.Metric(Stats.median(seq), "1/s"),
      "spark_query_logs_per_s" -> Stats.Metric(Stats.median(sQuery), "1/s"),
      "ga_at_0.9" -> Stats.Metric(ga, "ratio"),
      "model_bytes" -> Stats.Metric(modelBytes, "bytes"),
      "setup_s" -> Stats.Metric(setupS, "s"),
    )
    Stats.resultLine(c.failed == 0, c.attempted, c.failed, m)
  }

  private def traced(w: Workload, seed: Long, seconds: Double, p: Phases, st: State, spark: SparkSession,
                     c: Checker, outDir: java.nio.file.Path): String = {
    val tr = new Tracer
    val counters = new SparkCounters(spark.sparkContext)
    val samples = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
    def put(k: String, v: Double): Unit = samples.getOrElseUpdate(k, mutable.ArrayBuffer.empty) += v
    val nproc = Runtime.getRuntime.availableProcessors()

    rounds(seconds) { r =>
      tr.round = r
      // batch: traced composition vs the single parseLocalRaw call
      val (tm, tids, extra) = p.tracedParse(tr, st.in.batch, nproc)
      val (um, uids, untracedS) = p.untracedParse(nproc)
      Checks.sameModel(c, tm, um, "traced vs untraced parse")
      Checks.sameIds(c, tids, uids, "traced vs untraced parse matches")
      extra.foreach { case (k, v) => put(k, v) }
      val parse = tr.named("parse", r).head
      val parseIds = Set(parse.id)
      val trainSpan = tr.named("train", r).head
      val clusters = tr.named("cluster", r)
      put("parse.wall_ms", parse.durNs / 1e6)
      put("parse.self_ms", tr.selfMs("parse", r))
      put("parse.variables.calls", tr.itemCalls("parse.variables", parseIds).toDouble)
      put("parse.variables.busy_ms", tr.itemMs("parse.variables", parseIds))
      put("parse.tokenizer.calls", tr.itemCalls("parse.tokenizer", parseIds).toDouble)
      put("parse.tokenizer.busy_ms", tr.itemMs("parse.tokenizer", parseIds))
      put("train.wall_ms", trainSpan.durNs / 1e6)
      put("train.self_ms", tr.selfMs("train", r))
      put("cluster.busy_ms", clusters.map(_.durNs).sum / 1e6)
      put("cluster.max_group_ms", clusters.map(_.durNs).max / 1e6)
      put("train.parallel_speedup", clusters.map(_.durNs).sum.toDouble / trainSpan.durNs)
      put("assemble.busy_ms", tr.busyMs("assemble", r))
      put("parse.matcher.compile_ms", tr.busyMs("parse.matcher.compile", r))
      put("parse.matcher.calls", tr.itemCalls("parse.matcher", parseIds).toDouble)
      put("parse.matcher.busy_ms", tr.itemMs("parse.matcher", parseIds))
      put("trace.parse_overhead_ratio", parse.durNs / 1e9 / untracedS)
      put("parse.parallel_logs_per_s", st.in.batch.length / untracedS)

      // online: traced per-log path vs the untraced OnlineMatcher pass
      val (oids, om, oextra) = p.tracedOnline(tr)
      val (uoids, untracedOnlineS) = p.untracedOnline()
      Checks.sameIds(c, oids, uoids, "traced vs untraced online matches")
      oextra.foreach { case (k, v) => put(k, v) }
      val online = tr.named("online", r).head
      val onlineIds = Set(online.id)
      put("variables.calls", tr.itemCalls("variables", onlineIds).toDouble)
      put("variables.busy_ms", tr.itemMs("variables", onlineIds))
      put("tokenizer.calls", tr.itemCalls("tokenizer", onlineIds).toDouble)
      put("tokenizer.busy_ms", tr.itemMs("tokenizer", onlineIds))
      put("matcher.compile_ms", tr.busyMs("matcher.compile", r))
      put("matcher.calls", tr.itemCalls("matcher", onlineIds).toDouble)
      put("matcher.busy_ms", tr.itemMs("matcher", onlineIds))
      put("online.self_ms", tr.selfMs("online", r))
      put("trace.online_overhead_ratio", online.durNs / 1e9 / untracedOnlineS)
      put("online.match_logs_per_s", st.in.stream.length / untracedOnlineS)

      val (open, openIds) = p.openLoop()
      Checks.sameIds(c, openIds, uoids.take(openIds.length), "open vs closed loop matches")
      put("loadgen.match_p50_ms", Stats.quantile(open.latencyMs, 0.5))
      put("loadgen.match_p90_ms", Stats.quantile(open.latencyMs, 0.9))
      put("loadgen.match_p99_ms", Stats.quantile(open.latencyMs, 0.99))
      put("loadgen.lag_ms_p99", Stats.quantile(open.lagMs, 0.99))
      put("loadgen.backlog_max", open.backlogMax.toDouble)

      // query sweep, merge and codec on the traced session's model
      val withTemps = om.modelWithTemporaries
      tr.span("query") {
        val items = tr.items("query.resolve")
        Phases.SweepThresholds.foreach(t => oids.foreach(id => items.time(Query.resolve(withTemps, id, t))))
      }
      val queryIds = Set(tr.named("query", r).head.id)
      put("query.calls", tr.itemCalls("query.resolve", queryIds).toDouble)
      put("query.busy_ms", tr.itemMs("query.resolve", queryIds))
      put("query.distinct_ids", oids.distinct.length.toDouble)
      val merged = tr.span("merge") { Merge.merge(withTemps, st.m1, ByteBrainConfig()) }
      tr.span("merge.update") { om.updateModel(merged) }
      put("merge.busy_ms", tr.busyMs("merge", r))
      put("merge.update_ms", tr.busyMs("merge.update", r))
      put("merge.nodes_out", merged.size.toDouble)
      put("merge.temporaries_in", withTemps.nodes.count(_.temporary).toDouble)
      put("merge.temporaries_kept", merged.nodes.count(_.temporary).toDouble)
      val bytes = tr.span("codec.serialize") { ModelCodec.serialize(merged) }
      val back = tr.span("codec.deserialize") { ModelCodec.deserialize(bytes) }
      Checks.sameModel(c, back, merged, "codec round trip")
      put("codec.serialize_ms", tr.busyMs("codec.serialize", r))
      put("codec.deserialize_ms", tr.busyMs("codec.deserialize", r))
      put("codec.bytes", bytes.length.toDouble)

      // Spark, with job groups read back by the listener
      val s = tr.span("spark") {
        p.sparkPipeline(first = r == 0, group = g => spark.sparkContext.setJobGroup(g, g))
      }
      // per call: train and match run once a round, query several times
      Seq("train" -> Seq(s.trainS), "match" -> Seq(s.matchS), "query" -> s.queryS).foreach { case (g, walls) =>
        val k = counters.take(g)
        val calls = walls.size.toDouble
        put(s"spark.$g.wall_ms", Stats.median(walls) * 1e3)
        put(s"spark.$g.jobs", k.jobs / calls)
        put(s"spark.$g.tasks", k.tasks / calls)
        put(s"spark.$g.executor_run_ms", k.executorRunMs / calls)
        put(s"spark.$g.executor_cpu_ms", k.executorCpuNs / 1e6 / calls)
        put(s"spark.$g.gc_ms", k.gcMs / calls)
        put(s"spark.$g.shuffle_read_bytes", k.shuffleReadBytes / calls)
        put(s"spark.$g.shuffle_write_bytes", k.shuffleWriteBytes / calls)
      }
    }
    tr.write(outDir.resolve(s"trace-${w.name}-$seed.json"))
    val m = PerLayer.all.map { case (k, unit) =>
      k -> Stats.Metric(samples.get(k).map(Stats.median).getOrElse(Double.NaN), unit)
    }
    Stats.resultLine(c.failed == 0 && PerLayer.all.forall(x => samples.contains(x._1)), c.attempted, c.failed, m)
  }
}

/** Every per-layer metric of the traced run, with its unit. */
object PerLayer {
  private val sparkKeys = for {
    g <- Seq("train", "match", "query")
    (k, u) <- Seq("wall_ms" -> "ms", "jobs" -> "count", "tasks" -> "count", "executor_run_ms" -> "ms",
      "executor_cpu_ms" -> "ms", "gc_ms" -> "ms", "shuffle_read_bytes" -> "bytes", "shuffle_write_bytes" -> "bytes")
  } yield s"spark.$g.$k" -> u

  val all: Seq[(String, String)] = Seq(
    "parse.parallel_logs_per_s" -> "1/s", "parse.wall_ms" -> "ms", "parse.self_ms" -> "ms", "parse.raw_uniques" -> "count", "parse.dedup_ratio" -> "ratio",
    "parse.variables.calls" -> "count", "parse.variables.busy_ms" -> "ms",
    "parse.tokenizer.calls" -> "count", "parse.tokenizer.busy_ms" -> "ms", "parse.tokenizer.tokens_out" -> "count",
    "train.wall_ms" -> "ms", "train.self_ms" -> "ms", "train.groups" -> "count", "train.nodes_out" -> "count",
    "train.max_depth" -> "count", "cluster.busy_ms" -> "ms", "cluster.max_group_ms" -> "ms",
    "cluster.group_size_max" -> "count", "train.parallel_speedup" -> "ratio", "assemble.busy_ms" -> "ms",
    "parse.matcher.compile_ms" -> "ms", "parse.matcher.calls" -> "count", "parse.matcher.busy_ms" -> "ms",
    "variables.calls" -> "count", "variables.busy_ms" -> "ms",
    "tokenizer.calls" -> "count", "tokenizer.busy_ms" -> "ms", "tokenizer.tokens_out" -> "count",
    "matcher.compile_ms" -> "ms", "matcher.calls" -> "count", "matcher.busy_ms" -> "ms",
    "matcher.exact_hits" -> "count", "matcher.wildcard_hits" -> "count", "matcher.misses" -> "count",
    "matcher.hit_ratio" -> "ratio", "online.self_ms" -> "ms", "online.match_logs_per_s" -> "1/s",
    "query.calls" -> "count", "query.busy_ms" -> "ms", "query.distinct_ids" -> "count",
    "merge.busy_ms" -> "ms", "merge.update_ms" -> "ms", "merge.nodes_out" -> "count",
    "merge.temporaries_in" -> "count", "merge.temporaries_kept" -> "count",
    "codec.serialize_ms" -> "ms", "codec.deserialize_ms" -> "ms", "codec.bytes" -> "bytes",
  ) ++ sparkKeys ++ Seq(
    "loadgen.match_p50_ms" -> "ms", "loadgen.match_p90_ms" -> "ms", "loadgen.match_p99_ms" -> "ms", "loadgen.lag_ms_p99" -> "ms", "loadgen.backlog_max" -> "count",
    "trace.parse_overhead_ratio" -> "ratio", "trace.online_overhead_ratio" -> "ratio",
  )
}
