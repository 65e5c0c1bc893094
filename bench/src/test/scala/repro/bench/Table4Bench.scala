package repro.bench

import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{ByteBrain, ByteBrainConfig, Query}

/** Reproduces the paper's Table 4: templates produced at different saturation
  * thresholds for Android lock logs, demonstrating real-time precision
  * adjustment. The corpus mirrors the paper's example — wake-lock messages
  * with acquire/release actions, flg/flags field-name variants,
  * android/audioserver owners and a null-vs-value worksource.
  */
class Table4Bench extends AnyFunSuite {

  private def corpus(n: Int): IndexedSeq[String] = {
    val rng = new Random(21)
    (0 until n).map { _ =>
      val action = if (rng.nextBoolean()) "acquire" else "release"
      val flg = if (rng.nextBoolean()) "flg" else "flags"
      val name = if (rng.nextInt(4) == 0) "audioserver" else "android"
      val ws = if (rng.nextBoolean()) "null" else s"ws${rng.nextInt(1 << 22)}"
      // value fields are true high-cardinality variables (ids, handles)
      val lock = s"l${rng.nextInt(1 << 22)}x"
      val tag = s"t${rng.nextInt(1 << 22)}j"
      val uid = rng.nextInt(1 << 22) + 1000
      val pid = rng.nextInt(1 << 22) + 3000
      s"$action lock $lock $flg ${rng.nextInt(1 << 22)} tag $tag name $name ws $ws uid $uid pid $pid"
    }
  }

  test("Table 4: templates at varying saturation thresholds (adaptability)") {
    val lines = corpus(4000)
    val cfg = ByteBrainConfig()
    val (model, matched) = ByteBrain.parseLocalRaw(lines, cfg)

    println("=== Table 4: templates by saturation threshold (Android-like lock logs) ===")
    val thresholds = Seq(0.05, 0.78, 0.9, 0.95)
    val countByThreshold = thresholds.map { th =>
      val templates = Query.templatesAt(model, matched.toIndexedSeq, th)
      println(f"--- saturation >= $th%.2f: ${templates.size} templates")
      templates.sortBy(t => Query.mergeConsecutiveWildcards(t.template).mkString(" "))
        .take(16)
        .foreach(t => println("    " + Query.mergeConsecutiveWildcards(t.template).mkString(" ")))
      templates.size
    }

    // paper's progression: coarse single template → action split → owner /
    // field-name / null-vs-value splits
    assert(countByThreshold == countByThreshold.sorted, s"monotone: $countByThreshold")
    assert(countByThreshold.head <= 4, "low threshold must be highly generalized")
    assert(countByThreshold.last >= countByThreshold.head * 2,
      "high threshold must be distinctly more precise")

    val fine = Query.templatesAt(model, matched.toIndexedSeq, 0.95)
      .map(_.templateText)
    assert(fine.exists(_.contains("acquire")) && fine.exists(_.contains("release")),
      "actions distinguished at high precision")
    val coarse = Query.templatesAt(model, matched.toIndexedSeq, 0.05).map(_.templateText)
    assert(!coarse.exists(t => t.contains("acquire") && !t.contains("release")) ||
      coarse.size <= 4)
  }
}
