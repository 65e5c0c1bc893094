package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.GroupingAccuracy

class ByteBrainLocalSpec extends AnyFunSuite {
  private val cfg = ByteBrainConfig()

  private def corpus(n: Int): (IndexedSeq[String], IndexedSeq[Int]) = {
    val rng = new scala.util.Random(1)
    val out = Vector.newBuilder[(String, Int)]
    (0 until n).foreach { _ =>
      rng.nextInt(3) match {
        case 0 => out += ((s"accept connection from 10.0.${rng.nextInt(20)}.${rng.nextInt(99)} ok", 0))
        case 1 => out += ((s"reject connection from 10.0.${rng.nextInt(20)}.${rng.nextInt(99)} ok", 1))
        case 2 => out += ((s"worker ${rng.nextInt(1000000)} finished batch ${rng.nextInt(1000000)}", 2))
      }
    }
    val v = out.result()
    (v.map(_._1), v.map(_._2))
  }

  test("trainLocal builds a non-empty model") {
    val (lines, _) = corpus(300)
    val model = ByteBrain.trainLocal(lines, cfg)
    assert(model.size > 0)
    assert(model.nodes.exists(_.depth == 0))
  }

  test("parseLocal groups a clean 3-template corpus perfectly at threshold 0.9") {
    val (lines, truth) = corpus(600)
    val (model, matched) = ByteBrain.parseLocalRaw(lines, cfg)
    val resolved = matched.map(id => Query.resolve(model, id, 0.9).id).toIndexedSeq
    assert(GroupingAccuracy.compute(resolved, truth) == 1.0)
  }

  test("every log matches some template after training on itself") {
    val (lines, _) = corpus(400)
    val model = ByteBrain.trainLocal(lines, cfg)
    val matcher = new CompiledMatcher(model)
    val tok = new Tokenizer(cfg.tokenizerRegex)
    lines.foreach { l =>
      val toks = ByteBrain.preprocess(l, cfg, tok)
      assert(matcher.matchTokens(toks).isDefined, s"unmatched: $l")
    }
  }

  test("training is deterministic in (input, config)") {
    val (lines, _) = corpus(200)
    val a = ByteBrain.trainLocal(lines, cfg)
    val b = ByteBrain.trainLocal(lines, cfg)
    assert(a.nodes == b.nodes)
  }

  test("sequential (parallelism=1) training gives the same model") {
    val (lines, _) = corpus(200)
    val a = ByteBrain.trainLocal(lines, cfg, parallelism = 1)
    val b = ByteBrain.trainLocal(lines, cfg, parallelism = 8)
    assert(a.nodes.toSet == b.nodes.toSet)
  }

  test("dedup=false ablation still parses correctly on a clean corpus") {
    val (lines, truth) = corpus(300)
    val c = cfg.copy(dedup = false)
    val (m, matched) = ByteBrain.parseLocalRaw(lines, c)
    val resolved = matched.map(id => Query.resolve(m, id, 0.9).id).toIndexedSeq
    assert(GroupingAccuracy.compute(resolved, truth) >= 0.95)
  }

  test("different token counts end in different initial groups") {
    val lines = Vector("a b c", "a b c d", "a b c", "a b c d e")
    val model = ByteBrain.trainLocal(lines, cfg)
    assert(model.nodes.map(_.groupKey.numTokens).toSet == Set(3, 4, 5))
  }

  test("prefix grouping (k=1) separates groups by first token") {
    val c = cfg.copy(prefixTokens = 1)
    val lines = Vector("alpha x 1", "alpha x 2", "beta x 1", "beta x 2")
    val model = ByteBrain.trainLocal(lines, c)
    val prefixes = model.nodes.map(_.groupKey.prefix).toSet
    assert(prefixes == Set(Seq("alpha"), Seq("beta")))
  }

  test("sampleMaxLogs caps training input (OOM guard, §3)") {
    val (lines, _) = corpus(500)
    val c = cfg.copy(sampleMaxLogs = 100)
    val model = ByteBrain.trainLocal(lines, c)
    assert(model.nodes.filter(_.isRoot).map(_.count).sum <= 100)
  }

  test("empty input gives the empty model") {
    assert(ByteBrain.trainLocal(Vector.empty[String], cfg).size == 0)
  }

  test("config validation rejects bad thresholds") {
    assertThrows[IllegalArgumentException](ByteBrainConfig(stopThreshold = 0.0))
    assertThrows[IllegalArgumentException](ByteBrainConfig(stopThreshold = 1.5))
    assertThrows[IllegalArgumentException](ByteBrainConfig(maxClustersPerSplit = 1))
  }
}
