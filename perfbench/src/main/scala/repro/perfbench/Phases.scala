package repro.perfbench

import java.util.concurrent.{Callable, Executors, TimeUnit}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel

import repro.core._
import repro.eval.GroupingAccuracy
import repro.perfbench.Phases._

/** What set-up leaves for the measured rounds. M0 is the model of the batch
  * set (the online path's starting model), M1 the model of the stream window
  * that retraining merges in.
  */
final case class State(in: Inputs, m0: TemplateModel, m1: TemplateModel, df: DataFrame)

/** The three phases — batch parse, per-log online matching and the Spark
  * pipeline — each composed from `repro.core`'s public calls. The untraced
  * run times whole calls for the end-to-end metrics; the traced run composes
  * the same stages with a span around each and reports the per-layer metrics.
  */
final class Phases(w: Workload, st: State, spark: SparkSession, nproc: Int, c: Checker) {
  private val cfg = ByteBrainConfig()
  private val tokenizer = new Tokenizer(cfg.tokenizerRegex)
  private def secs(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** A full collection right before each timed call, so garbage left by
    * the previous call is not collected inside the next call's timing.
    */
  private def settle(): Unit = System.gc()

  def batchLines: Int = st.in.batch.length

  /** [[Phases.WarmUpPasses]] unchecked passes of every call the rounds time,
    * and one of the per-log path and the merge, so that class loading, Spark's
    * code generation and JIT compilation are done before the first measured
    * round. Part of the set-up time.
    */
  def warmUp(): Unit = {
    for (_ <- 1 to Phases.WarmUpPasses) {
      ByteBrain.parseLocalRaw(st.in.batch, cfg, nproc)
      ByteBrain.parseLocalRaw(st.in.batch, cfg, 1)
      val model = ByteBrain.train(spark, st.df, cfg)
      val matched = ByteBrain.matchDf(spark, model, st.df, cfg).persist(StorageLevel.MEMORY_ONLY)
      matched.write.format("noop").mode("overwrite").save()
      val queried = ByteBrain.queryDf(spark, model, matched, Phases.GaThreshold)
      for (_ <- 1 to Phases.SparkQueryReps) queried.write.format("noop").mode("overwrite").save()
      matched.unpersist(blocking = true)
    }
    runOnline()
  }

  // ------------------------------------------------------------ batch parse

  /** Grouping at the query threshold: resolve once per distinct matched id,
    * as the service answers a query over a parsed batch.
    */
  private def resolveEach(model: TemplateModel, ids: Array[Int]): Array[Int] = {
    val resolved = ids.distinct.map(id => id -> Query.resolve(model, id, Phases.GaThreshold).id).toMap
    ids.map(resolved)
  }

  /** Parallel and sequential parse, alternated until the phase has run
    * [[Phases.BatchRepeatS]]; the seconds of each sequential parse. Only the
    * sequential parse is timed here: the parallel one spreads over every core
    * of the shared host and swung by more than a quarter between runs, so the
    * traced run reports it per layer.
    */
  def batch(): Seq[Double] = {
    val lines = st.in.batch
    Phases.repeat(Phases.BatchRepeatS) { _ =>
      val (mp, ip) = ByteBrain.parseLocalRaw(lines, cfg, nproc)
      val gp = resolveEach(mp, ip)
      settle()
      val t1 = System.nanoTime()
      val (ms, is) = ByteBrain.parseLocalRaw(lines, cfg, 1)
      val gs = resolveEach(ms, is)
      val seqS = secs(t1)

      Checks.sameModel(c, mp, ms, "parallel vs sequential parse")
      Checks.sameIds(c, ip, is, "parallel vs sequential matches")
      Checks.sameIds(c, gp, gs, "parallel vs sequential groups")
      Checks.sameModel(c, mp, st.m0, "parse vs set-up model")
      seqS
    }
  }

  /** Grouping Accuracy at [[Phases.GaThreshold]] against the generator's
    * truth: the mean over the run's batch set and the `extra` sets, each
    * parsed at parallelism `nproc` and checked. One set alone swings by about
    * 5% with the seed on `thunderbird`, whose heaviest template is merged
    * with a rare one in about half the draws.
    */
  def groupingAccuracy(extra: Seq[(Vector[String], Vector[Int])]): Double = {
    val sets = (st.in.batch, st.in.batchTruth) +: extra
    sets.map { case (lines, truth) =>
      val (model, ids) = ByteBrain.parseLocalRaw(lines, cfg, nproc)
      val groups = resolveEach(model, ids)
      checkParse(model, lines, ids, groups)
      GroupingAccuracy.compute(groups.toIndexedSeq, truth)
    }.sum / sets.size
  }

  /** Per distinct line: the matched node is in the model and fits the line's
    * tokens; per distinct id: the grouping is the reference resolution.
    */
  private def checkParse(model: TemplateModel, lines: IndexedSeq[String], ids: Array[Int], groups: Array[Int]): Unit = {
    val seen = mutable.HashSet.empty[String]
    var i = 0
    while (i < lines.length) {
      if (seen.add(lines(i))) {
        val toks = ByteBrain.preprocess(lines(i), cfg, tokenizer)
        c.check(model.byId.get(ids(i)).exists(Checks.matchOk(_, toks)), s"batch line $i: id ${ids(i)} does not fit")
      }
      i += 1
    }
    val byId = ids.zip(groups).toMap
    byId.foreach { case (id, g) =>
      c.check(g == Checks.resolveRef(model, id, Phases.GaThreshold), s"batch resolve($id) = $g")
    }
  }

  // --------------------------------------------------------------- online

  /** The per-log path over the whole stream, then the merge on the session's
    * model, whose size is `model_bytes`, all checked. The per-log throughput,
    * the query sweep and the open loop are per-layer metrics of the traced
    * run.
    */
  def online(): TemplateModel = {
    val (ids, toks, withTemps, merged) = runOnline()
    val n = ids.length
    var i = 0
    while (i < n) {
      c.check(withTemps.byId.get(ids(i)).exists(Checks.matchOk(_, toks(i))), s"stream log $i: id ${ids(i)} does not fit")
      i += 1
    }
    c.check(merged.nodes.forall(x => x.isRoot || merged.byId.contains(x.parentId)), "merged model: dangling parent")
    Checks.resolveAll(c, withTemps, ids.distinct, Phases.SweepThresholds.toSeq,
      (id, t) => Query.resolve(withTemps, id, t).id)
    Checks.codecRoundTrip(c, merged, "merged model")
    merged
  }

  /** The per-log path and the merge alone, without checks: the matched id
    * and tokens of every stream log, the session's model with its
    * temporaries, and the merged model.
    */
  def runOnline(): (Array[Int], Array[Array[String]], TemplateModel, TemplateModel) = {
    val stream = st.in.stream
    val n = stream.length
    val om = new OnlineMatcher(st.m0)
    val ids = new Array[Int](n)
    val toks = new Array[Array[String]](n)
    var i = 0
    while (i < n) {
      val t = ByteBrain.preprocess(stream(i), cfg, tokenizer)
      ids(i) = om.matchOrInsert(t).id
      toks(i) = t
      i += 1
    }
    val withTemps = om.modelWithTemporaries
    val merged = Merge.merge(withTemps, st.m1, cfg)
    om.updateModel(merged)
    (ids, toks, withTemps, merged)
  }

  /** The stream's first lines offered on the open-loop schedule to a fresh
    * session.
    */
  def openLoop(): (OpenLoopResult, Array[Int]) = {
    val stream = st.in.stream
    val om = new OnlineMatcher(st.m0)
    val ids = new Array[Int](Workloads.OpenLoopLines)
    settle()
    val open = LoadGen.run(Workloads.OpenLoopLines, w.openLoopRate) { (from, until) =>
      var j = from
      while (j < until) { ids(j) = om.matchOrInsert(ByteBrain.preprocess(stream(j), cfg, tokenizer)).id; j += 1 }
    }
    (open, ids)
  }

  // ---------------------------------------------------------------- spark

  /** `Trainer.train`, then `matchDf` (persisted, so `queryDf` does not match
    * again) and [[Phases.SparkQueryReps]] `queryDf` writes, the short query
    * stage being repeated for more samples; every stage is materialised with
    * a no-op write.
    */
  def sparkPipeline(first: Boolean, group: String => Unit = _ => ()): SparkOut = {
    val sc = spark.sparkContext
    settle()
    group("train")
    val t0 = System.nanoTime()
    val model = ByteBrain.train(spark, st.df, cfg)
    val trainS = secs(t0)
    Checks.sameModel(c, model, st.m0, "Spark vs local model")
    group("match")
    val matched = ByteBrain.matchDf(spark, model, st.df, cfg).persist(StorageLevel.MEMORY_ONLY)
    settle()
    val t1 = System.nanoTime()
    matched.write.format("noop").mode("overwrite").save()
    val matchS = secs(t1)
    group("query")
    val queried = ByteBrain.queryDf(spark, model, matched, Phases.GaThreshold)
    val queryS = (0 until Phases.SparkQueryReps).map { _ =>
      settle()
      val t2 = System.nanoTime()
      queried.write.format("noop").mode("overwrite").save()
      secs(t2)
    }
    sc.clearJobGroup()
    if (first) checkSparkRows(model, queried)
    matched.unpersist(blocking = true)
    SparkOut(trainS, matchS, queryS)
  }

  /** Every `matchDf`/`queryDf` row against the local matcher and query. */
  private def checkSparkRows(model: TemplateModel, queried: DataFrame): Unit = {
    val matcher = new CompiledMatcher(model)
    val local = mutable.HashMap.empty[String, Int]
    queried.select("log_id", "template_id", "query_template_id").collect().foreach { r =>
      val line = st.in.batch(r.getLong(0).toInt)
      val id = local.getOrElseUpdate(line,
        matcher.matchTokens(ByteBrain.preprocess(line, cfg, tokenizer)).map(_.id).getOrElse(-1))
      c.check(r.getInt(1) == id, s"matchDf row ${r.getLong(0)}: ${r.getInt(1)} vs $id")
      val q = if (id < 0) -1 else Query.resolve(model, id, Phases.GaThreshold).id
      c.check(r.getInt(2) == q, s"queryDf row ${r.getLong(0)}: ${r.getInt(2)} vs $q")
    }
  }

  // --------------------------------------------------------------- traced

  /** `ByteBrain.parseLocalRaw` composed stage by stage from the public calls,
    * with a span around each: raw dedup and glue are the parse span's self
    * time; preprocessing, training and matching are its children.
    */
  def tracedParse(tr: Tracer, lines: IndexedSeq[String], parallelism: Int): (TemplateModel, Array[Int], Map[String, Double]) = {
    val out = mutable.LinkedHashMap.empty[String, Double]
    var model: TemplateModel = null
    var assigned: Array[Int] = null
    tr.span("parse") {
      val uniqIdxOf = new Array[Int](lines.length)
      val uniqLines = mutable.ArrayBuffer.empty[String]
      val counts = mutable.ArrayBuffer.empty[Long]
      val index = mutable.HashMap.empty[String, Int]
      var i = 0
      while (i < lines.length) {
        val id = index.getOrElseUpdate(lines(i), { uniqLines += lines(i); counts += 0L; uniqLines.size - 1 })
        counts(id) += 1L
        uniqIdxOf(i) = id
        i += 1
      }
      val tok = new Tokenizer(cfg.tokenizerRegex)
      val vars = tr.items("parse.variables")
      val toks = tr.items("parse.tokenizer")
      var tokensOut = 0L
      val uniqTokens = uniqLines.map { l =>
        val replaced = vars.time(CommonVariables.replace(l, cfg.variablePatterns))
        val t = toks.time(tok.tokenize(replaced))
        tokensOut += t.length
        t
      }.toIndexedSeq
      model = tr.span("train") { tracedTrain(tr, uniqTokens.zip(counts).filter(_._1.nonEmpty), parallelism, out) }
      val om = tr.span("parse.matcher.compile") { new OnlineMatcher(model) }
      val matcherItems = tr.items("parse.matcher")
      val matchedPerUnique = uniqTokens.map(t => if (t.isEmpty) -1 else matcherItems.time(om.matchOrInsert(t)).id)
      assigned = uniqIdxOf.map(matchedPerUnique)
      out ++= Seq(
        "parse.raw_uniques" -> uniqLines.size.toDouble,
        "parse.dedup_ratio" -> lines.length.toDouble / math.max(1, uniqLines.size),
        "parse.tokenizer.tokens_out" -> tokensOut.toDouble)
    }
    (model, assigned, out.toMap)
  }

  /** `ByteBrain.trainLocalWeighted` composed from its stages: dedup by token
    * text and initial grouping (the train span's self time), one
    * `HierarchicalClustering.buildGroupTree` span per group on a pool of
    * `parallelism` threads, then `Trainer.assemble`.
    */
  private def tracedTrain(tr: Tracer, rows: IndexedSeq[(Array[String], Long)], parallelism: Int,
                          out: mutable.Map[String, Double]): TemplateModel = {
    c.check(rows.iterator.map(_._2).sum <= cfg.sampleMaxLogs, "traced training assumes the sampling cap is not hit")
    val counts = mutable.LinkedHashMap.empty[String, (Array[String], Long)]
    rows.foreach { case (t, n) =>
      counts.updateWith(t.mkString(" ")) {
        case Some((t0, c0)) => Some((t0, c0 + n))
        case None           => Some((t, n))
      }
    }
    val groups = mutable.LinkedHashMap.empty[(Int, List[String]), mutable.ArrayBuffer[UniqueLog]]
    counts.valuesIterator.foreach { case (t, n) =>
      groups.getOrElseUpdate((t.length, t.take(cfg.prefixTokens).toList), mutable.ArrayBuffer.empty) += UniqueLog(t, n)
    }
    val trainSpan = tr.current
    val pool = Executors.newFixedThreadPool(math.max(1, parallelism))
    val results = try {
      val tasks = groups.toSeq.map { case ((len, prefix), logs) =>
        new Callable[Seq[LocalNode]] {
          override def call(): Seq[LocalNode] = tr.span("cluster", trainSpan) {
            HierarchicalClustering.buildGroupTree(GroupKey(len, prefix), logs.toIndexedSeq, cfg).map { n =>
              LocalNode(len, prefix, n.id, n.parentId, n.template, n.saturation, n.effectiveSaturation, n.depth, n.count)
            }
          }
        }
      }
      pool.invokeAll(tasks.asJava).asScala.toSeq.flatMap(_.get())
    } finally {
      pool.shutdown()
      pool.awaitTermination(1, TimeUnit.MINUTES)
    }
    val model = tr.span("assemble") { Trainer.assemble(results) }
    out ++= Seq(
      "train.groups" -> groups.size.toDouble,
      "cluster.group_size_max" -> groups.valuesIterator.map(_.size).max.toDouble,
      "train.nodes_out" -> model.size.toDouble,
      "train.max_depth" -> model.maxDepth.toDouble)
    model
  }

  /** The online per-log path with a span per call, classifying each match. */
  def tracedOnline(tr: Tracer): (Array[Int], OnlineMatcher, Map[String, Double]) = {
    val stream = st.in.stream
    val ids = new Array[Int](stream.length)
    var exact = 0L; var wildcard = 0L; var misses = 0L; var tokensOut = 0L
    var om: OnlineMatcher = null
    tr.span("online") {
      om = tr.span("matcher.compile") { new OnlineMatcher(st.m0) }
      val tok = new Tokenizer(cfg.tokenizerRegex)
      val vars = tr.items("variables")
      val toks = tr.items("tokenizer")
      val matcher = tr.items("matcher")
      var i = 0
      while (i < stream.length) {
        val replaced = vars.time(CommonVariables.replace(stream(i), cfg.variablePatterns))
        val t = toks.time(tok.tokenize(replaced))
        val node = matcher.time(om.matchOrInsert(t))
        tokensOut += t.length
        if (node.temporary) misses += 1
        else if (node.template.contains(CommonVariables.Wildcard)) wildcard += 1
        else exact += 1
        ids(i) = node.id
        i += 1
      }
    }
    (ids, om, Map(
      "tokenizer.tokens_out" -> tokensOut.toDouble,
      "matcher.exact_hits" -> exact.toDouble,
      "matcher.wildcard_hits" -> wildcard.toDouble,
      "matcher.misses" -> misses.toDouble,
      "matcher.hit_ratio" -> (exact + wildcard).toDouble / math.max(1L, stream.length.toLong)))
  }

  /** The untraced references the traced compositions are compared with. */
  def untracedParse(parallelism: Int): (TemplateModel, Array[Int], Double) = {
    val t0 = System.nanoTime()
    val (m, ids) = ByteBrain.parseLocalRaw(st.in.batch, cfg, parallelism)
    (m, ids, secs(t0))
  }

  def untracedOnline(): (Array[Int], Double) = {
    val stream = st.in.stream
    val om = new OnlineMatcher(st.m0)
    val ids = new Array[Int](stream.length)
    val t0 = System.nanoTime()
    var i = 0
    while (i < stream.length) { ids(i) = om.matchOrInsert(ByteBrain.preprocess(stream(i), cfg, tokenizer)).id; i += 1 }
    (ids, secs(t0))
  }
}

object Phases {
  final case class SparkOut(trainS: Double, matchS: Double, queryS: Seq[Double])

  val SparkQueryReps = 4

  /** Warm-up passes before the first round. After one pass, the first
    * round's `queryDf` writes on `hdfs` still took 0.2–0.33 s against about
    * 0.2 s in the next round; after two, they took 0.13–0.16 s, as later ones
    * did.
    */
  val WarmUpPasses = 2

  /** The batch phase repeats within a round until it has run this long, so
    * its metric gets several samples per run.
    */
  val BatchRepeatS = 2.0

  /** Run `f` at least once and until `minS` seconds have passed. */
  def repeat[A](minS: Double)(f: Int => A): IndexedSeq[A] = {
    val t0 = System.nanoTime()
    val out = scala.collection.mutable.ArrayBuffer.empty[A]
    while (out.isEmpty || (System.nanoTime() - t0) / 1e9 < minS) out += f(out.size)
    out.toIndexedSeq
  }

  /** Query threshold of the paper's Grouping Accuracy runs. */
  val GaThreshold = 0.9

  /** Eight query precisions swept over every stored id. */
  val SweepThresholds: Array[Double] = Array(0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
}
