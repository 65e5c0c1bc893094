package repro.perfbench

import repro.core.{ModelCodec, Query, TemplateModel, TemplateNode}

/** Output checks. Each compares an answer of the program against a reference
  * computed here, never against a pinned number; every checked operation
  * counts as attempted and every wrong one as failed.
  */
final class Checker {
  var attempted: Long = 0L
  var failed: Long = 0L
  private var reported = 0

  def check(ok: Boolean, what: => String): Unit = {
    attempted += 1
    if (!ok) {
      failed += 1
      if (reported < 20) { Console.err.println(s"check failed: $what"); reported += 1 }
    }
  }
}

object Checks {

  /** Every field of every node, in id order: two models are the same model
    * when their canonical forms are equal.
    */
  def canonical(m: TemplateModel): Vector[TemplateNode] = m.nodes.sortBy(_.id).toVector

  /** A matched log satisfies its node's template, or is a temporary node
    * whose template is exactly its tokens.
    */
  def matchOk(n: TemplateNode, tokens: Array[String]): Boolean =
    if (n.temporary) n.template == tokens.toIndexedSeq else n.matches(tokens)

  /** Reference for `Query.resolve`: walk up from the matched node with parent
    * links only, and keep the coarsest node whose effective saturation meets
    * the threshold; the matched node itself when none does.
    */
  def resolveRef(model: TemplateModel, id: Int, threshold: Double): Int = {
    var cur = model.byId(id)
    var best = if (cur.effectiveSaturation >= threshold - 1e-9) cur.id else -1
    while (!cur.isRoot) {
      cur = model.byId(cur.parentId)
      if (cur.effectiveSaturation >= threshold - 1e-9) best = cur.id
    }
    if (best < 0) id else best
  }

  /** `Query.resolve` over every (id, threshold) pair, against the reference. */
  def resolveAll(c: Checker, model: TemplateModel, ids: Iterable[Int], thresholds: Seq[Double],
                 answer: (Int, Double) => Int): Unit =
    for (t <- thresholds; id <- ids) {
      val got = answer(id, t)
      c.check(got == resolveRef(model, id, t), s"resolve($id, $t) = $got")
    }

  def codecRoundTrip(c: Checker, m: TemplateModel, what: String): Array[Byte] = {
    val bytes = ModelCodec.serialize(m)
    c.check(canonical(ModelCodec.deserialize(bytes)) == canonical(m), s"$what: codec round trip")
    bytes
  }

  def sameModel(c: Checker, a: TemplateModel, b: TemplateModel, what: String): Unit =
    c.check(canonical(a) == canonical(b), s"$what: models differ (${a.size} vs ${b.size} nodes)")

  def sameIds(c: Checker, a: Array[Int], b: Array[Int], what: String): Unit =
    c.check(java.util.Arrays.equals(a, b), s"$what: assignments differ")
}
