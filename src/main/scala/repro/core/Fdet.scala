package repro.core

/** Result of running FDET (Algorithm 1) on one graph.
  *
  * @param blocks    all detected blocks, in detection order (1st = densest)
  * @param scores    φ(G(S_i)) for each block, same order
  * @param kHat      the truncation point k̂ (Definition 3), 1-based count
  */
final case class FdetResult(
    blocks: IndexedSeq[Peeling.Block],
    scores: IndexedSeq[Double],
    kHat: Int) {

  /** Blocks surviving truncation, i.e. the first k̂. */
  def truncatedBlocks: IndexedSeq[Peeling.Block] = blocks.take(kHat)

  /** Union of user ids over the given blocks. */
  def userSet(truncated: Boolean): Set[Long] =
    (if (truncated) truncatedBlocks else blocks).iterator.flatMap(_.uIds).toSet

  /** Union of merchant ids over the given blocks. */
  def merchantSet(truncated: Boolean): Set[Long] =
    (if (truncated) truncatedBlocks else blocks).iterator.flatMap(_.vIds).toSet
}

/** FDET (Algorithm 1): iteratively extract the densest block, remove its
  * internal edges from the graph, and repeat; stop via the truncating point
  * k̂ = argmin_i Δ²φ(G(S_i)) (Definition 3, the elbow of the block-score
  * curve) or after `maxBlocks`.
  */
object Fdet {

  /** Blocks detected past a stable elbow k̂ before detection stops. The
    * paper states no lookahead; 3 is this reproduction's choice.
    */
  val ElbowPatience = 3

  /** Run FDET on an edge list.
    *
    * @param edges             (user, merchant) pairs; duplicates collapsed
    * @param maxBlocks         hard cap on detected blocks (paper: few tens)
    * @param elbowPatience     if Some(p): stop detecting once the current
    *                          elbow k̂ has been stable for p further blocks —
    *                          the paper's "until argmin Δ²φ" with lookahead.
    *                          None detects exactly `maxBlocks` (FIX-K mode).
    */
  def run(
      edges: Array[(Long, Long)],
      maxBlocks: Int = 30,
      elbowPatience: Option[Int] = Some(ElbowPatience)): FdetResult = {
    require(maxBlocks >= 1, "maxBlocks must be >= 1")
    var current = edges
    val blocks = Vector.newBuilder[Peeling.Block]
    var scores = Vector.empty[Double]
    var done = false
    while (!done && scores.length < maxBlocks && current.nonEmpty) {
      val g = LocalGraph.fromEdges(current)
      // Weights are recomputed on the *current* graph: each round is "compute
      // the densest subgraph in the current graph G" (Section IV-B).
      val w = DensityMetric.merchantWeights(g)
      val b = Peeling.densestBlock(g, w)
      blocks += b
      scores :+= b.score

      val us = b.uIds.toSet
      val vs = b.vIds.toSet
      // "remove edges in previously detected subgraphs from the current graph"
      val next = current.filter { case (u, v) => !(us(u) && vs(v)) }
      // Degenerate guard: a block that removes nothing would loop forever.
      current = if (next.length == current.length) Array.empty else next

      elbowPatience.foreach { p =>
        if (scores.length >= truncationPoint(scores) + p) done = true
      }
    }
    FdetResult(blocks.result(), scores, truncationPoint(scores))
  }

  /** Definition 3: k̂ = argmin_i Δ²φ(G(S_i)) with
    * Δ²φ(i) = φ(i+1) − 2φ(i) + φ(i−1) (second-order finite difference).
    * Only interior points have a defined Δ²; with ≤ 2 blocks, keep them all.
    * Returned value is the 1-based number of blocks to keep.
    */
  def truncationPoint(scores: Seq[Double]): Int = {
    val k = scores.length
    if (k <= 2) return k
    var bestI = 1
    var bestD = Double.MaxValue
    var i = 1
    while (i < k - 1) {
      val d2 = scores(i + 1) - 2 * scores(i) + scores(i - 1)
      if (d2 < bestD) { bestD = d2; bestI = i }
      i += 1
    }
    bestI + 1 // block index i (0-based) -> keep blocks 1..i+1
  }
}
