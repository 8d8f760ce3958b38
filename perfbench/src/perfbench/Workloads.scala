package perfbench

import java.io.{DataOutputStream, OutputStream}
import java.security.{DigestOutputStream, MessageDigest}

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession, functions => F}
import repro.baselines.Fraudar
import repro.core.{EnsemFdet, EnsemParams, Fdet, FdetResult, SampleMethod, Sampling}
import repro.eval.Metrics
import repro.eval.Metrics.PrPoint

/** One finished detection call: its wall time, the fingerprint of its output
  * and a thunk scoring the output's best-F1 point against the blacklist.
  */
final case class Done(seconds: Double, fingerprint: String, bestF1: () => Double)

/** A workload's detection call, its traced rebuild and the check that the
  * rebuild equals the program. Each call starts from the cached input.
  */
abstract class Workload {
  type Out
  protected def call(): Out
  protected def traced(t: Tracer): Out
  protected def fingerprint(o: Out): String
  protected def bestF1(o: Out): Double

  /** Untimed: the benchmark-side rebuild gives exactly the program's output. */
  def check(): Boolean

  final def run(tracer: Option[Tracer]): Done = {
    val t0 = System.nanoTime()
    val o = tracer.fold(call())(traced)
    val sec = (System.nanoTime() - t0) / 1e9
    Done(sec, fingerprint(o), () => bestF1(o))
  }
}

object Workload {
  /** Default scale factor of each workload; both run the jd3 spec. */
  val Scale: Map[String, Double] = Map(
    "fraudar-k30-jd3-sf10" -> 10.0,
    "ensem-res-jd3-sf10" -> 10.0)

  /** Graphs per untraced run. FRAUDAR runs one kernel on one graph, and its
    * peel work differs by up to 40% between seeds, so a run times it on
    * several graphs; EnsemFDet already spreads each call over 80 samples.
    */
  val Graphs: Map[String, Int] = Map(
    "fraudar-k30-jd3-sf10" -> 3,
    "ensem-res-jd3-sf10" -> 1)

  def apply(name: String, spark: SparkSession, edges: DataFrame, black: Set[Long], seed: Long): Workload =
    name match {
      case "fraudar-k30-jd3-sf10" => new FraudarWorkload(edges, black)
      case "ensem-res-jd3-sf10" => new EnsemWorkload(spark, edges, black, seed)
    }
}

object Fingerprint {
  /** First 96 bits of the SHA-256 of whatever `write` emits. */
  def apply(write: DataOutputStream => Unit): String = {
    val md = MessageDigest.getInstance("SHA-256")
    val out = new DataOutputStream(new DigestOutputStream(OutputStream.nullOutputStream(), md))
    write(out)
    out.flush()
    md.digest().take(12).map(b => f"${b & 0xff}%02x").mkString
  }
}

/** FRAUDAR K=30: collect to the driver, then the sequential FDET kernel. */
final class FraudarWorkload(edges: DataFrame, black: Set[Long]) extends Workload {
  type Out = FdetResult
  val K = 30

  protected def call(): FdetResult = Fraudar.run(edges, K)

  /** The collect, then the traced FDET loop as one "fdet.sample" span. */
  protected def traced(t: Tracer): FdetResult = {
    val local = t.span("fraudar.collect")(Fraudar.collectEdges(edges))
    val log = new KernelLog
    val r = t.span("fdet.sample")(TracedFdet.run(local, K, None, log))
    TracedFdet.adopt(t, t.lastId("fdet.sample"), log)
    TracedFdet.countGraph(t, local.length, log.nodes, log.peelEdges, r.blocks.length, r.kHat)
    r
  }

  protected def fingerprint(r: FdetResult): String = Fingerprint { out =>
    r.userSet(truncated = false).toArray.sorted.foreach(out.writeLong)
    r.scores.foreach(out.writeDouble)
    out.writeInt(r.kHat)
  }

  protected def bestF1(r: FdetResult): Double =
    Metrics.bestF1(Fraudar.cumulativeUserSets(r).zipWithIndex.map { case (set, i) =>
      PrPoint(i + 1.0, Metrics.prfLocal(set, black))
    }).prf.f1

  def check(): Boolean = {
    val local = Fraudar.collectEdges(edges)
    TracedFdet.sameResult(TracedFdet.run(local, K, None, new KernelLog), Fraudar.run(local, K))
  }
}

/** Per-sample output of the traced ensemble, returned by one executor task. */
final case class SampleOut(
    edges: Int,
    nodes: Int,
    users: Array[Long],
    merchants: Array[Long],
    blocks: Int,
    kHat: Int,
    peelEdges: Long,
    layers: Array[Byte],
    starts: Array[Long],
    ends: Array[Long],
    startNs: Long,
    endNs: Long,
    matchesProgram: Boolean)

/** EnsemFDet, Table III setting: RES, N=80, S=0.1, T=1, truncated. */
final class EnsemWorkload(spark: SparkSession, edges: DataFrame, black: Set[Long], seed: Long)
    extends Workload {
  import spark.implicits._
  type Out = Seq[(Long, Long)]
  val p: EnsemParams = EnsemParams(SampleMethod.RES, n = 80, s = 0.1, t = 1, seed = seed)

  protected def call(): Seq[(Long, Long)] =
    Metrics.collectUserVotes(EnsemFdet.votes(spark, edges, p)).sorted

  protected def traced(t: Tracer): Seq[(Long, Long)] =
    rebuild(t, checking = false)(Metrics.collectUserVotes(_).sorted)

  protected def fingerprint(votes: Seq[(Long, Long)]): String = Fingerprint { out =>
    votes.foreach { case (id, n) => out.writeLong(id); out.writeLong(n) }
  }

  protected def bestF1(votes: Seq[(Long, Long)]): Double =
    Metrics.bestF1(Metrics.voteSweep(votes, black)).prf.f1

  /** Every sample's traced loop equals `Fdet.run`, and the votes rebuilt from
    * the samples equal `EnsemFdet.votes` on both sides.
    */
  def check(): Boolean = {
    def all(v: DataFrame) = v.collect().map(r => (r.getString(0), r.getLong(1), r.getLong(2))).sorted.toSeq
    val t = new Tracer
    t.newCall()
    val rebuilt = rebuild(t, checking = true)(all)
    val perSample = t.counted("fdet.samples_matching") == t.counted("fdet.samples")
    perSample && rebuilt == all(EnsemFdet.votes(spark, edges, p))
  }

  /** `EnsemFdet.votes` rebuilt from public calls: sampling (materialised),
    * the shuffle by sample id with the traced FDET loop per sample, then the
    * vote. `collect` turns the vote table into the call's output.
    */
  private def rebuild[A](t: Tracer, checking: Boolean)(collect: DataFrame => A): A = {
    val sampled = t.span("sampling") {
      val s = Sampling(p.method, edges, p.n, p.s, p.seed)
        .select(F.col("sid").cast("int"), F.col("u").cast("long"), F.col("v").cast("long"))
        .as[(Int, Long, Long)]
        .cache()
      t.count("sampling.rows", s.count().toDouble)
      s
    }
    try {
      val (out, voted) = t.span("ensemble") {
        val out = t.span("ensemble.kernels") {
          val o = sampled.groupByKey(_._1).mapGroups(EnsemWorkload.kernel(p, checking)).cache()
          o.count()
          o
        }
        (out, t.span("ensemble.vote")(collect(EnsemWorkload.vote(out))))
      }
      val kernels = t.lastId("ensemble.kernels")
      out.collect().foreach { s =>
        val id = t.adopt(kernels, "fdet.sample", s.startNs, s.endNs)
        TracedFdet.adopt(t, id, s.layers, s.starts, s.ends)
        TracedFdet.countGraph(t, s.edges, s.nodes, s.peelEdges, s.blocks, s.kHat)
        if (s.matchesProgram) t.count("fdet.samples_matching", 1)
      }
      out.unpersist(blocking = true)
      voted
    } finally sampled.unpersist(blocking = true)
  }
}

object EnsemWorkload {
  /** The executor-side task for one sample, as `EnsemFdet.votes` runs it. */
  def kernel(p: EnsemParams, checking: Boolean): (Int, Iterator[(Int, Long, Long)]) => SampleOut =
    (_, it) => {
      val es = it.map(e => (e._2, e._3)).toArray
      val patience = if (p.truncate) Some(3) else None
      val log = new KernelLog
      val t0 = System.nanoTime()
      val r = TracedFdet.run(es, p.maxBlocks, patience, log)
      val t1 = System.nanoTime()
      val ok = !checking || TracedFdet.sameResult(r, Fdet.run(es, p.maxBlocks, patience))
      SampleOut(es.length, log.nodes,
        r.userSet(p.truncate).toArray.sorted, r.merchantSet(p.truncate).toArray.sorted,
        r.blocks.length, r.kHat, log.peelEdges,
        log.layers.result(), log.starts.result(), log.ends.result(), t0, t1, ok)
    }

  /** The vote of `EnsemFdet.votes`: one vote per sample that detects a node. */
  def vote(samples: Dataset[SampleOut]): DataFrame = {
    val spark = samples.sparkSession
    import spark.implicits._
    samples
      .flatMap(s => s.users.iterator.map(("u", _)) ++ s.merchants.iterator.map(("v", _)))
      .toDF("side", "id")
      .groupBy("side", "id")
      .agg(F.count(F.lit(1)).as("votes"))
  }
}
