package perfbench

import scala.collection.mutable

import repro.core.{DensityMetric, Fdet, FdetResult, LocalGraph, Peeling}

/** One timed interval at a layer boundary. Spans of one detection call share
  * `call`; `parent` is the id of the span that caused this one (-1: the call).
  */
final case class Span(call: Int, id: Int, parent: Int, name: String, startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Driver-side span and counter recorder for the traced run. Spans stay in
  * memory and are written out once, when the run ends.
  */
final class Tracer {
  val spans = mutable.ArrayBuffer.empty[Span]
  private val counts = mutable.LinkedHashMap.empty[String, Double]
  private var call = 0
  private var open = List(-1)

  /** Start a new detection call: counters reset, spans get a new call id. */
  def newCall(): Unit = { call += 1; counts.clear(); open = List(-1) }

  def span[A](name: String)(f: => A): A = {
    val id = spans.length
    spans += Span(call, id, open.head, name, System.nanoTime(), 0L)
    open = id :: open
    try f
    finally {
      open = open.tail
      spans(id) = spans(id).copy(endNs = System.nanoTime())
    }
  }

  /** Record spans measured elsewhere (an executor task) under `parent`. */
  def adopt(parent: Int, name: String, startNs: Long, endNs: Long): Int = {
    val id = spans.length
    spans += Span(call, id, parent, name, startNs, endNs)
    id
  }

  /** Id of the latest span named `name`. */
  def lastId(name: String): Int = spans.lastIndexWhere(_.name == name)

  def count(name: String, n: Double): Unit = counts(name) = counts.getOrElse(name, 0.0) + n
  def counted(name: String): Double = counts.getOrElse(name, 0.0)

  /** Total seconds of this call's spans named `name`. */
  def seconds(name: String): Double =
    spans.iterator.filter(s => s.call == call && s.name == name).map(_.seconds).sum

  def maxSeconds(name: String): Double =
    spans.iterator.filter(s => s.call == call && s.name == name).map(_.seconds).maxOption.getOrElse(0.0)

  def spanCount(name: String): Int = spans.count(s => s.call == call && s.name == name)

  /** Seconds of this call's top-level spans: the layers on the blocking path. */
  def rootSeconds: Double = spans.iterator.filter(s => s.call == call && s.parent == -1).map(_.seconds).sum

  def toJson: String =
    spans.iterator.map { s =>
      s"""{"call":${s.call},"id":${s.id},"parent":${s.parent},"name":"${s.name}",""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs}}"""
    }.mkString("[\n", ",\n", "\n]\n")
}

/** Spans of one FDET kernel run, kept as primitive arrays so an executor
  * task can return them inside a Dataset row.
  */
final class KernelLog {
  val layers = mutable.ArrayBuilder.make[Byte]
  val starts = mutable.ArrayBuilder.make[Long]
  val ends = mutable.ArrayBuilder.make[Long]
  var peelEdges = 0L
  var nodes = 0

  def time[A](layer: Int)(f: => A): A = {
    val t0 = System.nanoTime()
    val a = f
    layers += layer.toByte; starts += t0; ends += System.nanoTime()
    a
  }
}

/** FDET's per-block loop rebuilt from the program's public calls —
  * `LocalGraph.fromEdges` → `DensityMetric.merchantWeights` →
  * `Peeling.densestBlock` → edge filter → `Fdet.truncationPoint` — so each
  * layer can be timed. `Fdet.run` is the reference it must equal.
  */
object TracedFdet {
  val Layers: Array[String] = Array("fdet.build", "fdet.weights", "fdet.peel", "fdet.remove", "fdet.elbow")

  def run(
      edges: Array[(Long, Long)],
      maxBlocks: Int,
      elbowPatience: Option[Int],
      log: KernelLog): FdetResult = {
    var current = edges
    val blocks = Vector.newBuilder[Peeling.Block]
    var scores = Vector.empty[Double]
    var done = false
    while (!done && scores.length < maxBlocks && current.nonEmpty) {
      val g = log.time(0)(LocalGraph.fromEdges(current))
      if (scores.isEmpty) log.nodes = g.numNodes
      log.peelEdges += g.numEdges
      val w = log.time(1)(DensityMetric.merchantWeights(g))
      val b = log.time(2)(Peeling.densestBlock(g, w))
      blocks += b
      scores :+= b.score
      val next = log.time(3) {
        val us = b.uIds.toSet
        val vs = b.vIds.toSet
        current.filter { case (u, v) => !(us(u) && vs(v)) }
      }
      current = if (next.length == current.length) Array.empty else next
      elbowPatience.foreach { p =>
        if (scores.length >= log.time(4)(Fdet.truncationPoint(scores)) + p) done = true
      }
    }
    FdetResult(blocks.result(), scores, log.time(4)(Fdet.truncationPoint(scores)))
  }

  /** Same blocks (node ids), bit-identical scores and the same k̂. */
  def sameResult(a: FdetResult, b: FdetResult): Boolean =
    a.kHat == b.kHat &&
      a.scores.map(java.lang.Double.doubleToLongBits) == b.scores.map(java.lang.Double.doubleToLongBits) &&
      a.blocks.length == b.blocks.length &&
      a.blocks.zip(b.blocks).forall { case (x, y) =>
        java.util.Arrays.equals(x.uIds, y.uIds) && java.util.Arrays.equals(x.vIds, y.vIds)
      }

  /** Count one graph FDET ran on, with its work and its blocks. */
  def countGraph(t: Tracer, edges: Int, nodes: Int, peelEdges: Long, blocks: Int, kHat: Int): Unit = {
    t.count("fdet.samples", 1)
    t.count("fdet.sample_edges", edges)
    t.count("fdet.sample_nodes", nodes)
    t.count("fdet.peel_edges", peelEdges.toDouble)
    t.count("fdet.blocks", blocks)
    t.count("fdet.blocks_kept", kHat)
  }

  /** Adopt a kernel log's spans into the tracer under `parent`. */
  def adopt(t: Tracer, parent: Int, log: KernelLog): Unit =
    adopt(t, parent, log.layers.result(), log.starts.result(), log.ends.result())

  def adopt(t: Tracer, parent: Int, layers: Array[Byte], starts: Array[Long], ends: Array[Long]): Unit = {
    var i = 0
    while (i < layers.length) { t.adopt(parent, Layers(layers(i).toInt), starts(i), ends(i)); i += 1 }
  }
}
