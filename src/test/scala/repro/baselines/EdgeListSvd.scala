package repro.baselines

import scala.collection.mutable

/** Reference for `SparseSvd` and `Spoken`: the edge-list SVD they replaced,
  * which multiplies by scanning a 0-based (row, col) edge array. Fed the
  * distinct edges sorted by (row, col), it sums in the same order as the
  * `LocalGraph` adjacency, so the two must agree bit for bit.
  */
object EdgeListSvd {

  /** Top-k SVD of the nU × nV adjacency with 1s at `edges` (distinct). */
  def compute(
      nU: Int,
      nV: Int,
      edges: Array[(Int, Int)],
      k: Int,
      iters: Int = 80,
      seed: Long = 7L): SparseSvd.Svd = {
    require(nU > 0 && nV > 0, "empty matrix")
    val es = edges
    val kk = math.min(k, math.min(nU, nV))
    val rnd = new scala.util.Random(seed)

    def multA(x: Array[Double]): Array[Double] = {
      val y = new Array[Double](nU)
      var e = 0
      while (e < es.length) { y(es(e)._1) += x(es(e)._2); e += 1 }
      y
    }
    def multAt(y: Array[Double]): Array[Double] = {
      val x = new Array[Double](nV)
      var e = 0
      while (e < es.length) { x(es(e)._2) += y(es(e)._1); e += 1 }
      x
    }
    def norm(x: Array[Double]): Double = math.sqrt(x.map(a => a * a).sum)
    def scaleInPlace(x: Array[Double], a: Double): Unit = {
      var i = 0; while (i < x.length) { x(i) *= a; i += 1 }
    }
    def deflate(x: Array[Double], basis: mutable.ArrayBuffer[Array[Double]]): Unit =
      basis.foreach { b =>
        var dot = 0.0
        var i = 0
        while (i < x.length) { dot += x(i) * b(i); i += 1 }
        i = 0
        while (i < x.length) { x(i) -= dot * b(i); i += 1 }
      }

    val vBasis = new mutable.ArrayBuffer[Array[Double]]
    val uOut = new mutable.ArrayBuffer[Array[Double]]
    val sOut = new mutable.ArrayBuffer[Double]

    var c = 0
    while (c < kk) {
      var v = Array.fill(nV)(rnd.nextGaussian())
      deflate(v, vBasis)
      var n0 = norm(v)
      if (n0 < 1e-12) { v = Array.fill(nV)(rnd.nextGaussian()); deflate(v, vBasis); n0 = norm(v) }
      scaleInPlace(v, 1.0 / n0)
      var it = 0
      var converged = false
      while (it < iters && !converged) {
        val w = multAt(multA(v))
        deflate(w, vBasis)
        val nw = norm(w)
        if (nw < 1e-14) {
          converged = true
        } else {
          scaleInPlace(w, 1.0 / nw)
          var dot = 0.0
          var i = 0
          while (i < nV) { dot += w(i) * v(i); i += 1 }
          if (math.abs(math.abs(dot) - 1.0) < 1e-12) converged = true
          v = w
        }
        it += 1
      }
      val av = multA(v)
      val sigma = norm(av)
      val u = if (sigma > 1e-12) { scaleInPlace(av, 1.0 / sigma); av } else new Array[Double](nU)
      vBasis += v
      uOut += u
      sOut += sigma
      c += 1
    }
    SparseSvd.Svd(uOut.toArray, sOut.toArray, vBasis.toArray)
  }

  /** Dense 0-based (row, col) indices of the distinct edges, sorted, with the
    * sorted user ids and the number of merchants.
    */
  def indexed(edges: Array[(Long, Long)]): (Array[Long], Int, Array[(Int, Int)]) = {
    val uIds = edges.map(_._1).distinct.sorted
    val vIds = edges.map(_._2).distinct.sorted
    val uIdx = uIds.zipWithIndex.toMap
    val vIdx = vIds.zipWithIndex.toMap
    (uIds, vIds.length, edges.distinct.map { case (u, v) => (uIdx(u), vIdx(v)) }.sorted)
  }

  /** SPOKEN's max |σ_k · U_k[u]| score over the edge-list SVD. */
  def spokenScores(edges: Array[(Long, Long)], r: Int, seed: Long): Seq[(Long, Double)] = {
    val (uIds, nV, idx) = indexed(edges)
    val svd = compute(uIds.length, nV, idx, r, seed = seed)
    uIds.indices.map { i =>
      val best = (0 until svd.rank).map(c => math.abs(svd.s(c) * svd.u(c)(i)))
        .foldLeft(0.0)((b, a) => if (a > b) a else b)
      (uIds(i), best)
    }
  }
}
