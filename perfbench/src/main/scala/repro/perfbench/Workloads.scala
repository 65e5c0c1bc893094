package repro.perfbench

import scala.util.Random

import repro.logdata.{Datasets, DatasetSpec, GroundTemplate, LogSynth, SlotKind, Tok}

/** One benchmark workload: a LogHub-2.0 dataset spec and the rate of its
  * open loop. The sizes every phase runs at are the same on every workload
  * and live in [[Workloads]].
  *
  * @param openLoopRate logs per second the open-loop generator offers: about
  *                     a quarter of the closed-loop capacity measured at the
  *                     commit that introduced the benchmark, then fixed (at
  *                     half, queueing turned short host stalls into swings of
  *                     the percentiles from run to run)
  */
final case class Workload(name: String, spec: DatasetSpec, openLoopRate: Double)

/** Generated inputs of one run, all from one seed. */
final case class Inputs(
    batch: Vector[String],
    batchTruth: Vector[Int],
    stream: Vector[String],
)

/** A dataset whose templates, value pools and template frequencies are fixed
  * (the code base that emits the logs) while a run's seed draws which
  * template each line comes from and the values it prints. Fixing the
  * structure keeps a workload's duplication and template mix the same from
  * seed to seed; `LogSynth.generate` redraws them with every seed.
  *
  * Templates and frequencies are those `LogSynth.generate(spec, n,
  * structureSeed)` draws from: the same Zipf weights over the same shuffled
  * rank order, and the variable-length list tail (§7) on the lightest
  * templates.
  */
final class Corpus(spec: DatasetSpec, structureSeed: Long) {
  private val fixed = LogSynth.buildTemplates(spec, structureSeed)

  private val weights: Array[Double] = {
    val ranks = new Random(structureSeed * 31 + spec.name.hashCode.toLong).shuffle((1 to fixed.size).toVector)
    ranks.map(r => 1.0 / math.pow(r.toDouble, spec.zipfAlpha)).toArray
  }

  val templates: Vector[GroundTemplate] = {
    val lightest = weights.zipWithIndex.sortBy(_._1).take(spec.listTemplates).map(_._2).toSet
    fixed.map(t => if (lightest(t.id)) t.copy(listTail = Some(Tok.Slot(SlotKind.Id, Vector.empty))) else t)
  }

  private val cdf: Array[Double] = {
    val total = weights.sum
    weights.scanLeft(0.0)(_ + _).tail.map(_ / total)
  }

  /** `n` lines and the ground-truth template id of each. */
  def draw(n: Int, rng: Random): (Vector[String], Vector[Int]) = {
    val truth = Vector.fill(n) {
      val i = java.util.Arrays.binarySearch(cdf, rng.nextDouble())
      math.min(templates.size - 1, if (i < 0) -i - 1 else i)
    }
    (truth.map(templates(_).render(rng)), truth)
  }
}

object Workloads {

  /** The dataset seed the repository's benches and tests generate with. */
  val StructureSeed = 7L

  /** Lines of the batch set: parsed locally, trained on by Spark, and the
    * window the online model M0 is trained on.
    */
  val BatchLines = 30000

  /** Lines matched one log at a time after the batch set. */
  val StreamLines = 30000

  /** Share of stream lines drawn from [[driftSpec]], whose token counts M0 has
    * never seen, so the online path inserts temporaries.
    */
  val DriftShare = 0.03

  /** Stream lines offered on the open-loop schedule. */
  val OpenLoopLines = 12000

  /** Batch sets `ga_at_0.9` is averaged over: the run's own and
    * [[gaBatches]].
    */
  val GaSets = 8

  /** Long lines (22–28 tokens) with a vocabulary of their own: no template of
    * either dataset has that many tokens, so every drift line misses M0.
    */
  val driftSpec: DatasetSpec = DatasetSpec("Drift", 40,
    Vector("migration", "rebalance", "shard", "replica", "epoch", "lease", "vnode", "tombstone"),
    familyFraction = 0.2, varDensity = 0.2, minLen = 22, maxLen = 28, listTemplates = 0)

  val all: Seq[Workload] = Seq(
    // many templates (1,241): clustering and the matcher's scan over up to
    // ~200 wildcard templates per length dominate the local layers
    Workload("thunderbird", Datasets.loghub2Spec("Thunderbird"), 8000.0),
    // few templates (46): preprocessing dominates, clustering and matcher
    // scans are short
    Workload("hdfs", Datasets.loghub2Spec("HDFS"), 10000.0),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** Deterministic in (workload, seed). The batch set and the stream are one
    * drawn sequence, so the stream continues the batch's distribution; drift
    * lines are spliced in at seeded positions.
    */
  def generate(w: Workload, seed: Long): Inputs = {
    val rng = new Random(seed)
    val (lines, truth) = new Corpus(w.spec, StructureSeed).draw(BatchLines + StreamLines, rng)
    val (drift, _) = new Corpus(driftSpec, StructureSeed).draw(StreamLines, rng)
    val stream = lines.iterator.drop(BatchLines).zipWithIndex.map { case (l, i) =>
      if (rng.nextDouble() < DriftShare) drift(i) else l
    }.toVector
    Inputs(lines.take(BatchLines), truth.take(BatchLines), stream)
  }

  /** `GaSets - 1` more batch sets and their truth, drawn like the run's
    * batch set; deterministic in (workload, seed).
    */
  def gaBatches(w: Workload, seed: Long): Seq[(Vector[String], Vector[Int])] = {
    val rng = new Random(~seed)
    val corpus = new Corpus(w.spec, StructureSeed)
    Seq.fill(GaSets - 1)(corpus.draw(BatchLines, rng))
  }
}
