package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel

/** Flat, Encoder-friendly form of a template node emitted by executors;
  * ids are local to the initial group and re-based globally on the driver.
  */
final case class LocalNode(
    groupLen: Int,
    groupPrefix: Seq[String],
    localId: Int,
    parentLocalId: Int,
    template: Seq[String],
    saturation: Double,
    effectiveSaturation: Double,
    depth: Int,
    count: Long,
)

/** Offline training (paper §3 "Offline Training", §4.1–4.7).
  *
  * One dataflow, run in-process by the local driver (`ByteBrain.trainLocal`,
  * `ByteBrain.parseLocalRaw`) and as a Spark job by [[train]]:
  *
  *  1. raw-line deduplication (§4.1.3) — `groupBy(message).count()`, the first
  *     shuffle;
  *  2. `ByteBrain.preprocess` of each unique line: common variable replacement
  *     (§4.1.2) and tokenization (§4.1.1); empty results are dropped;
  *  3. sampling of exceptionally large topics down to about
  *     `cfg.sampleMaxLogs` logs (§3, [[sampledCount]]);
  *  4. token deduplication — `groupBy(tokens)` summing counts (§4.1.3);
  *  5. initial grouping by [[groupKey]] — `groupByKey` (§4.2);
  *  6. per-group hash encoding + hierarchical clustering ([[cluster]]) inside
  *     `flatMapGroups` — groups are independent, so Spark parallelizes them
  *     across cores exactly as §3 "Parallel" describes;
  *  7. the collected nodes are re-based to global ids ([[assemble]]).
  *
  * With `cfg.dedup = false` every line is its own row of count 1 and neither
  * deduplication runs.
  */
object Trainer {

  def train(spark: SparkSession, logs: DataFrame, cfg: ByteBrainConfig,
            messageCol: String = "message"): TemplateModel = {
    import spark.implicits._

    val raw: Dataset[(String, Long)] =
      if (cfg.dedup) logs.groupBy(col(messageCol)).count().as[(String, Long)]
      else logs.select(col(messageCol), lit(1L)).as[(String, Long)]

    // deserialized once per task: one compiled delimiter pattern per task
    val tokenizer = new Tokenizer(cfg.tokenizerRegex)
    // kept as an RDD of objects for the two passes: persisting it as a
    // Dataset (a columnar in-memory relation) instead made training on 30k
    // lines 2-3 s slower on a 4-core machine
    val prepared = raw.rdd
      .map { case (message, n) => (ByteBrain.preprocess(message, cfg, tokenizer).toSeq, n) }
      .filter(_._1.nonEmpty)
      .persist(StorageLevel.MEMORY_AND_DISK)
    try {
      val total = prepared.map(_._2).fold(0L)(_ + _)
      val sampled = prepared
        .map { case (tokens, n) => (tokens, sampledCount(tokens, n, total, cfg)) }
        .filter(_._2 > 0)
        .toDF("tokens", "cnt")
      val deduped: Dataset[(Seq[String], Long)] =
        (if (cfg.dedup) sampled.groupBy($"tokens").agg(sum($"cnt").as("cnt")) else sampled)
          .as[(Seq[String], Long)]

      val localNodes = deduped
        .groupByKey { case (tokens, _) => groupKey(tokens, cfg) }
        .flatMapGroups { (key: GroupKey, rows: Iterator[(Seq[String], Long)]) =>
          cluster(key, rows.map { case (tokens, n) => UniqueLog(tokens.toArray, n) }.toIndexedSeq, cfg)
        }
        .collect()
        .toSeq
      assemble(localNodes)
    } finally prepared.unpersist()
  }

  /** §3: exceptionally large topics are randomly sampled to bound memory.
    * The count a (tokens, count) row keeps in the sample out of `total`
    * non-empty logs: unchanged up to `cfg.sampleMaxLogs`, above it scaled by
    * `sampleMaxLogs / total` with deterministic stochastic rounding, so rows
    * with small counts drop out (count 0) proportionally instead of all
    * surviving. The rounding offset is a hash of the token text and the seed.
    */
  def sampledCount(tokens: Seq[String], count: Long, total: Long, cfg: ByteBrainConfig): Long =
    if (total <= cfg.sampleMaxLogs) count
    else {
      val scale = cfg.sampleMaxLogs.toDouble / total
      // murmur finalizer: FNV's raw high bits are not uniform enough
      var h = HashEncoder.hash64(tokens.mkString(" ") + cfg.seed)
      h ^= h >>> 33; h *= 0xff51afd7ed558ccdL
      h ^= h >>> 33; h *= 0xc4ceb9fe1a85ec53L
      h ^= h >>> 33
      val u = (h >>> 11).toDouble / (1L << 53).toDouble
      math.floor(count * scale + u).toLong
    }

  /** Initial group of a token sequence (§4.2): token count and k-token prefix. */
  def groupKey(tokens: Seq[String], cfg: ByteBrainConfig): GroupKey =
    GroupKey(tokens.length, tokens.take(cfg.prefixTokens).toList)

  /** Hierarchical clustering of one initial group (§4.3–4.7) in flat form. */
  def cluster(key: GroupKey, logs: IndexedSeq[UniqueLog], cfg: ByteBrainConfig): Seq[LocalNode] =
    HierarchicalClustering.buildGroupTree(key, logs, cfg).map { n =>
      LocalNode(key.numTokens, key.prefix, n.id, n.parentId, n.template, n.saturation,
        n.effectiveSaturation, n.depth, n.count)
    }

  /** Re-base per-group local ids into one global id space (deterministic:
    * groups ordered by key, nodes by local id).
    */
  def assemble(localNodes: Seq[LocalNode]): TemplateModel = {
    val byGroup = localNodes.groupBy(n => (n.groupLen, n.groupPrefix.toList)).toSeq.sortBy(_._1.toString)
    var offset = 0
    val nodes = byGroup.flatMap { case ((len, prefix), ns) =>
      val sortedNs = ns.sortBy(_.localId)
      val base = offset
      offset += sortedNs.size
      sortedNs.map { n =>
        TemplateNode(
          id = base + n.localId,
          parentId = if (n.parentLocalId < 0) -1 else base + n.parentLocalId,
          groupKey = GroupKey(len, prefix),
          template = n.template.toIndexedSeq,
          saturation = n.saturation,
          effectiveSaturation = n.effectiveSaturation,
          depth = n.depth,
          count = n.count,
        )
      }
    }
    new TemplateModel(nodes.toVector)
  }
}
