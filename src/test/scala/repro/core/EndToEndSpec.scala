package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.{GroupingAccuracy, Harness, Methods}
import repro.logdata.Datasets
import repro.baselines.ByteBrainParser

/** Full-lifecycle integration tests mirroring the service (paper §3):
  * periodic training, online matching with temporary templates, model merge
  * on the next cycle, query-time precision adjustment.
  */
class EndToEndSpec extends AnyFunSuite {
  private val cfg = ByteBrainConfig()

  test("accuracy on representative LogHub-lite datasets is in the paper's band") {
    Seq("Apache", "HDFS", "Proxifier", "Zookeeper").foreach { name =>
      val ds = Datasets.loghub(name)
      val r = Harness.evaluate(new ByteBrainParser(), ds, timeoutSec = 120)
      assert(r.finished)
      assert(r.ga >= 0.85, f"$name GA=${r.ga}%.3f")
    }
  }

  test("online lifecycle: new log pattern is learned at the next training cycle") {
    val day1 = (0 until 300).map(i => s"serve request ${i % 40} fast")
    val model1 = ByteBrain.trainLocal(day1, cfg)
    val om = new OnlineMatcher(model1)
    val tok = new Tokenizer(cfg.tokenizerRegex)

    // a brand-new pattern arrives online → temporary singletons
    val day2New = (0 until 50).map(i => s"evict cache entry e$i cold")
    day2New.foreach(l => om.matchOrInsert(ByteBrain.preprocess(l, cfg, tok)))
    assert(om.modelWithTemporaries.nodes.count(_.temporary) == 50)

    // next cycle trains on the new day and merges with the old model
    val model2 = ByteBrain.trainLocal(day1 ++ day2New, cfg)
    val merged = Merge.merge(om.modelWithTemporaries, model2, cfg)
    val matcher = new CompiledMatcher(merged)
    // both old and new patterns now match non-temporary templates
    val hitOld = matcher.matchTokens(ByteBrain.preprocess("serve request 7 fast", cfg, tok))
    val hitNew = matcher.matchTokens(ByteBrain.preprocess("evict cache entry e3 cold", cfg, tok))
    assert(hitOld.isDefined && hitNew.isDefined)
  }

  test("query threshold sweep: template count grows with the threshold (Fig 11 shape)") {
    val ds = Datasets.loghub("Zookeeper")
    val (model, matched) = ByteBrain.parseLocalRaw(ds.lines, cfg)
    val counts = Seq(0.05, 0.5, 0.9, 1.0).map { th =>
      matched.map(id => Query.resolve(model, id, th).id).distinct.length
    }
    assert(counts == counts.sorted, s"monotone template counts expected: $counts")
    assert(counts.head < counts.last)
  }

  test("GA is stable across mid-range thresholds (Fig 11 shape)") {
    val ds = Datasets.loghub("HDFS")
    val (model, matched) = ByteBrain.parseLocalRaw(ds.lines, cfg)
    val gas = Seq(0.85, 0.9, 0.95).map { th =>
      val resolved = matched.map(id => Query.resolve(model, id, th).id).toIndexedSeq
      GroupingAccuracy.compute(resolved, ds.truth)
    }
    assert(gas.max - gas.min < 0.15, s"GA swing too large: $gas")
  }

  test("retraining on the same data keeps the model size stable under merge") {
    val ds = Datasets.loghub("Apache")
    val m1 = ByteBrain.trainLocal(ds.lines, cfg)
    val m2 = ByteBrain.trainLocal(ds.lines, cfg)
    val merged = Merge.merge(m1, m2, cfg)
    assert(merged.size <= m1.size + 2, s"merge blew up: ${m1.size} -> ${merged.size}")
  }

  test("all 17 methods run end-to-end on one small dataset") {
    val ds = Datasets.loghub("Proxifier")
    val results = Methods.all(ds).map(m => Harness.evaluate(m, ds, timeoutSec = 120))
    assert(results.size == 17)
    assert(results.forall(_.finished))
    val byteBrain = results.find(_.method == "ByteBrain").get
    assert(byteBrain.ga >= results.map(_.ga).max - 0.05,
      s"ByteBrain must be near the top: ${results.map(r => r.method -> r.ga)}")
  }
}
