package repro.core

import java.util.concurrent.{Callable, Executors, TimeUnit}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** End-to-end ByteBrain facade.
  *
  * `train`/`matchDf`/`queryDf` are the distributed Spark paths (the repro
  * target); `trainLocal`/`parseLocalRaw` are the driver-local equivalents
  * used by the per-dataset accuracy and throughput benches — the paper's own
  * evaluation harness is likewise single-machine (§5.3), with groups
  * clustered on a small thread pool (§3 "Parallel": 1–5 cores in
  * production). Both drivers run the one training dataflow that [[Trainer]]
  * describes and share its stages.
  */
object ByteBrain {

  // ---------------------------------------------------------------- local path

  /** Preprocess one message: common variable replacement + tokenization. A
    * null message is an empty one.
    */
  def preprocess(message: String, cfg: ByteBrainConfig, tokenizer: Tokenizer): Array[String] =
    if (message == null) Array.empty
    else tokenizer.tokenize(CommonVariables.replace(message, cfg.variablePatterns))

  /** Offline training on an in-memory batch: [[parseLocalRaw]]'s model,
    * without the matching.
    */
  def trainLocal(lines: IndexedSeq[String], cfg: ByteBrainConfig,
                 parallelism: Int = Runtime.getRuntime.availableProcessors()): TemplateModel =
    trainRows(prepare(lines, cfg), cfg, parallelism)

  /** Train + match a batch locally, returning the model and the matched
    * template id per input line (the grouping the GA metric scores); lines
    * that preprocess to no token get id −1. Raw records are deduplicated
    * first (§4.1.3), so only the unique lines are preprocessed, trained on
    * and matched. Log streams are massively repetitive (paper Fig. 4), so
    * this removes most of the per-record regex/tokenization cost — a key part
    * of ByteBrain's measured throughput edge over per-line streaming parsers.
    */
  def parseLocalRaw(lines: IndexedSeq[String], cfg: ByteBrainConfig,
                    parallelism: Int = Runtime.getRuntime.availableProcessors()): (TemplateModel, Array[Int]) = {
    val rows = prepare(lines, cfg)
    val model = trainRows(rows, cfg, parallelism)
    val matcher = new OnlineMatcher(model)
    val matchedPerRow = rows.tokens.map { toks =>
      if (toks.isEmpty) -1 else matcher.matchOrInsert(toks).id
    }
    (model, rows.rowOf.map(matchedPerRow))
  }

  /** Preprocessed training rows: `tokens(r)` with multiplicity `counts(r)`,
    * and the row of every input line.
    */
  private final case class Rows(tokens: IndexedSeq[Array[String]], counts: IndexedSeq[Long], rowOf: Array[Int])

  /** Raw-line dedup (§4.1.3), then preprocessing of each unique line; with
    * the `dedup = false` ablation, one row of count 1 per line.
    */
  private def prepare(lines: IndexedSeq[String], cfg: ByteBrainConfig): Rows = {
    val tokenizer = new Tokenizer(cfg.tokenizerRegex)
    if (!cfg.dedup)
      Rows(lines.map(preprocess(_, cfg, tokenizer)), IndexedSeq.fill(lines.length)(1L), Array.range(0, lines.length))
    else {
      val rowOf = new Array[Int](lines.length)
      val uniqLines = mutable.ArrayBuffer.empty[String]
      val counts = mutable.ArrayBuffer.empty[Long]
      val index = mutable.HashMap.empty[String, Int]
      var i = 0
      while (i < lines.length) {
        val id = index.getOrElseUpdate(lines(i), {
          uniqLines += lines(i); counts += 0L; uniqLines.size - 1
        })
        counts(id) += 1L
        rowOf(i) = id
        i += 1
      }
      Rows(uniqLines.map(preprocess(_, cfg, tokenizer)).toIndexedSeq, counts.toIndexedSeq, rowOf)
    }
  }

  /** [[Trainer]]'s stages after preprocessing: drop empty rows, sample, token
    * dedup, group, then cluster the groups in parallel (§3 "Parallel").
    */
  private def trainRows(rows: Rows, cfg: ByteBrainConfig, parallelism: Int): TemplateModel = {
    val withTokens = rows.tokens.indices.filter(r => rows.tokens(r).nonEmpty)
    val total = withTokens.iterator.map(rows.counts).sum
    val sampled = withTokens.iterator.map { r =>
      (rows.tokens(r), Trainer.sampledCount(rows.tokens(r), rows.counts(r), total, cfg))
    }.filter(_._2 > 0)

    val deduped: Iterator[(Array[String], Long)] =
      if (!cfg.dedup) sampled
      else {
        val counts = mutable.LinkedHashMap.empty[String, (Array[String], Long)]
        sampled.foreach { case (toks, cnt) =>
          counts.updateWith(toks.mkString(" ")) {
            case Some((t, c)) => Some((t, c + cnt))
            case None         => Some((toks, cnt))
          }
        }
        counts.valuesIterator
      }

    val groups = mutable.LinkedHashMap.empty[GroupKey, mutable.ArrayBuffer[UniqueLog]]
    deduped.foreach { case (tokens, cnt) =>
      groups.getOrElseUpdate(Trainer.groupKey(tokens, cfg), mutable.ArrayBuffer.empty) += UniqueLog(tokens, cnt)
    }

    val pool = Executors.newFixedThreadPool(math.max(1, parallelism))
    try {
      val tasks = groups.toSeq.map { case (key, logs) =>
        new Callable[Seq[LocalNode]] {
          override def call(): Seq[LocalNode] = Trainer.cluster(key, logs.toIndexedSeq, cfg)
        }
      }
      Trainer.assemble(pool.invokeAll(tasks.asJava).asScala.toSeq.flatMap(_.get()))
    } finally {
      pool.shutdown()
      pool.awaitTermination(1, TimeUnit.MINUTES)
    }
  }

  // ---------------------------------------------------------------- spark path

  /** Distributed training (see [[Trainer]]). */
  def train(spark: SparkSession, logs: DataFrame, cfg: ByteBrainConfig,
            messageCol: String = "message"): TemplateModel =
    Trainer.train(spark, logs, cfg, messageCol)

  /** Online matching as a Spark job: broadcast the compiled model and map
    * every log to (templateId, saturation, templateText). Unmatched logs get
    * templateId −1 (they would become temporary singletons in the service).
    */
  def matchDf(spark: SparkSession, model: TemplateModel, logs: DataFrame, cfg: ByteBrainConfig,
              messageCol: String = "message"): DataFrame = {
    val bc = spark.sparkContext.broadcast(new CompiledMatcher(model))
    val tokenizer = new Tokenizer(cfg.tokenizerRegex)
    val matchUdf = udf { (msg: String) =>
      bc.value.matchTokens(preprocess(msg, cfg, tokenizer)) match {
        case Some(n) => (n.id, n.effectiveSaturation, n.templateText)
        case None    => (-1, 0.0, null: String)
      }
    }
    logs.withColumn("_m", matchUdf(col(messageCol)))
      .withColumn("template_id", col("_m._1"))
      .withColumn("saturation", col("_m._2"))
      .withColumn("template", col("_m._3"))
      .drop("_m")
  }

  /** Query-time precision adjustment over a matched DataFrame: map each
    * matched template id to the coarsest ancestor meeting `threshold` (§3
    * "Query") using the broadcast parent chain.
    */
  def queryDf(spark: SparkSession, model: TemplateModel, matched: DataFrame,
              threshold: Double): DataFrame = {
    val bc = spark.sparkContext.broadcast(model)
    val resolveUdf = udf { (id: Int) =>
      if (id < 0) (-1, null: String)
      else {
        val n = Query.resolve(bc.value, id, threshold)
        (n.id, Query.mergeConsecutiveWildcards(n.template).mkString(" "))
      }
    }
    matched.withColumn("_q", resolveUdf(col("template_id")))
      .withColumn("query_template_id", col("_q._1"))
      .withColumn("query_template", col("_q._2"))
      .drop("_q")
  }
}
