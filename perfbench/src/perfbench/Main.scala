package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, Paths}
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.FraudGraphGen
import repro.eval.Experiments

/** Heap occupancy after every collection, read from GC notifications, and
  * the collectors' running totals.
  */
object GcWatch {
  /** Heap bytes in use after each collection, in order; entry i is collection base + i + 1. */
  private val afterGc = mutable.ArrayBuffer.empty[Long]
  private var base = 0L

  def install(): Unit = {
    base = totals()._1
    val listener = new NotificationListener {
      def handleNotification(n: Notification, handback: Any): Unit =
        if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
          val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData]).getGcInfo
          val used = info.getMemoryUsageAfterGc.values.asScala.map(_.getUsed).sum
          GcWatch.synchronized(afterGc += used)
        }
    }
    ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
      case e: NotificationEmitter => e.addNotificationListener(listener, null, null)
      case _ =>
    }
  }

  /** Heap in use after collections `from` + 1 to `to` (running counts from
    * `totals`), once their notifications, which arrive asynchronously, are in.
    */
  def usedAfter(from: Long, to: Long): Seq[Long] = {
    val deadline = System.nanoTime() + 5000000000L
    while (GcWatch.synchronized(base + afterGc.length) < to && System.nanoTime() < deadline) Thread.sleep(5)
    GcWatch.synchronized(afterGc.slice((from - base).toInt, (to - base).toInt).toSeq)
  }

  /** (collections, seconds) so far, over all collectors. */
  def totals(): (Long, Double) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(_.getCollectionCount).sum, beans.map(_.getCollectionTime).sum / 1e3)
  }
}

/** One benchmark run in a fresh JVM: set up, warm up, then time a closed loop
  * of detection calls (one caller; each call starts after the previous one
  * returns) for a fixed number of seconds, and print every metric as JSON.
  */
object Main {
  /** Spark runs as local[k] with k = min(Cores, available processors). */
  val Cores = 4
  val ShufflePartitions = 64
  /** Generation, cache and count run this many times; the median rep counts in setup_s. */
  val SetupReps = 3

  final case class Args(
      workload: String,
      seed: Long,
      seconds: Double,
      trace: Boolean,
      sf: Option[Double],
      stateDir: Path,
      launchedMs: Long)

  def parse(argv: Array[String]): Args = {
    val m = argv.grouped(2).map { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    Args(m("workload"), m("seed").toLong, m("seconds").toDouble, m("trace") == "1",
      m.get("sf").map(_.toDouble), Paths.get(m("state-dir")), m("launched-ms").toLong)
  }

  def main(argv: Array[String]): Unit = {
    val a = parse(argv)
    // Seconds since the launcher started this JVM, so set-up includes JVM start.
    val launchNs = System.nanoTime() - (System.currentTimeMillis() - a.launchedMs) * 1000000L
    require(Workload.Scale.contains(a.workload), s"unknown workload ${a.workload}")
    val code =
      try run(a, () => (System.nanoTime() - launchNs) / 1e9)
      catch { case NonFatal(e) => e.printStackTrace(); 1 }
    System.out.flush()
    sys.exit(code)
  }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.length % 2 == 1) s(s.length / 2)
    else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  private def session(k: Int, stateDir: Path): SparkSession =
    SparkSession.builder()
      .master(s"local[$k]")
      .appName("perfbench")
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", ShufflePartitions)
      .config("spark.sql.adaptive.enabled", false)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.local.dir", stateDir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", stateDir.resolve("warehouse").toString)
      .getOrCreate()

  /** A timed call on graph `graph`: its result (None when it threw), its heap peak and its GC work. */
  final case class Timed(graph: Int, done: Option[Done], heapPeakBytes: Long, gcCount: Long, gcSec: Double)

  def run(a: Args, now: () => Double): Int = {
    val sf = a.sf.getOrElse(Workload.Scale(a.workload))
    // Graph i of a run is generated with seed `seed * graphs + i`; a traced
    // run times the layers on the first graph only.
    val graphs = if (a.trace) 1 else Workload.Graphs(a.workload)
    val graphSeeds = (0 until graphs).map(i => a.seed * Workload.Graphs(a.workload) + i)
    val k = math.min(Cores, Runtime.getRuntime.availableProcessors)
    GcWatch.install()
    val spark = session(k, a.stateDir)

    // The first graph is set up SetupReps times; setup_s counts its median once.
    val genTimes = mutable.ArrayBuffer.empty[Double]
    def setUp(seed: Long): DataFrame = {
      val t0 = now()
      val e = FraudGraphGen.edges(spark, FraudGraphGen.Jd3.scaled(sf).copy(seed = seed)).cache()
      e.count()
      if (genTimes.length < SetupReps) genTimes += now() - t0
      e
    }
    (1 until SetupReps).foreach(_ => setUp(graphSeeds.head).unpersist(blocking = true))
    val inputs = graphSeeds.map(setUp)
    val nEdges = inputs.head.count()
    val black = Experiments.blacklistSet(spark, FraudGraphGen.Jd3.scaled(sf))
    val wls = inputs.zip(graphSeeds).map { case (e, seed) => Workload(a.workload, spark, e, black, seed) }

    // One stored fingerprint per graph, a line each.
    val refFile = a.stateDir.resolve("fingerprints").resolve(f"${a.workload}-sf$sf%s-seed${a.seed}%d")
    val stored = if (Files.exists(refFile)) new String(Files.readAllBytes(refFile), UTF_8).split("\n").toSeq else Nil
    val reference: Array[Option[String]] = Array.tabulate(graphs)(stored.lift)
    var attempted = 0
    var failed = 0
    /** One detection call on graph `g`: counted, and failed on an exception
      * or a fingerprint mismatch. A call that returned still reports its time.
      */
    def op(g: Int)(f: => Done): Option[Done] = {
      attempted += 1
      try {
        val d = f
        if (reference(g).isEmpty) reference(g) = Some(d.fingerprint)
        if (!reference(g).contains(d.fingerprint)) {
          System.err.println(s"graph $g: fingerprint ${d.fingerprint} != reference ${reference(g).get}")
          failed += 1
        }
        Some(d)
      } catch { case NonFatal(e) => e.printStackTrace(); failed += 1; None }
    }
    def timed(g: Int, tracer: Option[Tracer]): Timed = {
      System.gc()
      tracer.foreach(_.newCall())
      val (c0, s0) = GcWatch.totals()
      val d = op(g)(wls(g).run(tracer))
      val (c1, s1) = GcWatch.totals()
      System.gc() // the collection right after a call still belongs to its window
      val peak = GcWatch.usedAfter(c0, GcWatch.totals()._1).maxOption.getOrElse(0L)
      Timed(g, d, peak, c1 - c0, s1 - s0)
    }

    // Untimed warm-up on the first graph. A traced run warms up with the
    // check instead, which runs both the program's call and the traced rebuild.
    val tracer = if (a.trace) Some(new Tracer) else None
    val warmupStart = now()
    if (a.trace) {
      attempted += 1
      val ok = try wls.head.check() catch { case NonFatal(e) => e.printStackTrace(); false }
      if (!ok) { System.err.println("traced rebuild differs from the program"); failed += 1 }
    } else op(0)(wls.head.run(None))
    val warmupS = now() - warmupStart
    val setupS = now() - genTimes.sum + median(genTimes.toSeq)

    // Closed loop over the graphs in turn, each at least once; a traced run
    // alternates untraced and traced calls.
    val untraced = mutable.ArrayBuffer.empty[Timed]
    val traced = mutable.ArrayBuffer.empty[(Timed, Map[String, Double])]
    val loopStart = now()
    while (now() - loopStart < a.seconds || untraced.length < graphs) {
      untraced += timed(untraced.length % graphs, None)
      tracer.foreach { t =>
        val tc = timed(0, Some(t))
        tc.done.foreach { d =>
          traced += ((tc, layerMetrics(t, k, nEdges) + ("trace.unaccounted_s" -> (d.seconds - t.rootSeconds))))
        }
      }
    }

    val wall = untraced.flatMap(_.done).map(_.seconds).toSeq
    // Each graph's first timed call gives its best F1; the run reports the median.
    val bestF1 = median(untraced.groupBy(_.graph).values.flatMap(_.head.done).map(_.bestF1()).toSeq)
    val heapPeakMb = untraced.map(_.heapPeakBytes).maxOption.getOrElse(0L) / 1048576.0

    if (failed == 0 && stored.length < graphs) {
      Files.createDirectories(refFile.getParent)
      Files.write(refFile, reference.map(_.getOrElse("")).mkString("\n").getBytes(UTF_8))
    }

    val metrics: Seq[(String, Double, String)] =
      if (!a.trace) Seq(
        ("wall_s", median(wall), "s"),
        ("setup_s", setupS, "s"),
        ("best_f1", bestF1, "ratio"),
        ("heap_peak_mb", heapPeakMb, "MB"))
      else {
        val tracedWall = median(traced.map(_._1.done.get.seconds).toSeq)
        val layers = Layers.map { case (name, unit) => (name, median(traced.map(_._2(name)).toSeq), unit) }
        layers ++ Seq(
          ("gen.s", median(genTimes.toSeq), "s"),
          ("gen.edges", nEdges.toDouble, "count"),
          ("jvm.gc_s", median(traced.map(_._1.gcSec).toSeq), "s"),
          ("jvm.gc_count", median(traced.map(_._1.gcCount.toDouble).toSeq), "count"),
          ("trace.wall_s", tracedWall, "s"),
          ("trace.overhead_s", tracedWall - median(wall), "s"))
      }

    tracer.foreach { t =>
      val out = a.stateDir.resolve("traces").resolve(s"${a.workload}-seed${a.seed}.json")
      Files.createDirectories(out.getParent)
      Files.write(out, t.toJson.getBytes(UTF_8))
    }
    val env = Seq(
      "workload" -> s""""${a.workload}"""", "seed" -> a.seed.toString, "sf" -> sf.toString,
      "edges" -> nEdges.toString, "master" -> s""""local[$k]"""",
      "heap_max_mb" -> (Runtime.getRuntime.maxMemory / 1048576).toString,
      "jvm" -> s""""${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}"""",
      "spark" -> s""""${spark.version}"""", "shuffle_partitions" -> ShufflePartitions.toString,
      "graph_seeds" -> graphSeeds.mkString("[", ",", "]"),
      "fingerprints" -> reference.map(r => s""""${r.getOrElse("")}"""").mkString("[", ",", "]"),
      "gen_s" -> genTimes.mkString("[", ",", "]"), "warmup_s" -> warmupS.toString,
      "timed_s" -> wall.mkString("[", ",", "]"), "run_s" -> now().toString)
    spark.stop()

    println(env.map { case (k, v) => s""""$k":$v""" }.mkString("""{"env":{""", ",", "}}"))
    val metricJson = metrics.map { case (n, v, u) => s""""$n":{"value":${num(v)},"unit":"$u"}""" }
    println(s"""{"correct":${failed == 0},"attempted":$attempted,"failed":$failed,""" +
      metricJson.mkString(""""metrics":{""", ",", "}}"))
    0
  }

  private def num(v: Double): String = if (v.isNaN || v.isInfinite) "null" else v.toString

  /** Per-layer metrics of one traced call, with their units. */
  val Layers: Seq[(String, String)] = Seq(
    "fdet.build_s" -> "s", "fdet.builds" -> "count", "fdet.weights_s" -> "s",
    "fdet.peel_s" -> "s", "fdet.peel_edges" -> "count", "fdet.remove_s" -> "s",
    "fdet.elbow_s" -> "s", "fdet.blocks" -> "count", "fdet.blocks_kept" -> "count",
    "fdet.kept_ratio" -> "ratio", "fdet.samples" -> "count", "fdet.sample_edges" -> "count",
    "fdet.sample_nodes" -> "count", "fdet.sample_max_s" -> "s",
    "sampling.s" -> "s", "sampling.rows" -> "count", "sampling.rows_per_edge" -> "ratio",
    "ensemble.s" -> "s", "ensemble.vote_s" -> "s", "ensemble.overhead_s" -> "s",
    "fraudar.collect_s" -> "s", "trace.unaccounted_s" -> "s")

  def layerMetrics(t: Tracer, k: Int, inputEdges: Long): Map[String, Double] = {
    val blocks = t.counted("fdet.blocks")
    val ensemble = t.seconds("ensemble")
    Map(
      "fdet.build_s" -> t.seconds("fdet.build"),
      "fdet.builds" -> t.spanCount("fdet.build").toDouble,
      "fdet.weights_s" -> t.seconds("fdet.weights"),
      "fdet.peel_s" -> t.seconds("fdet.peel"),
      "fdet.peel_edges" -> t.counted("fdet.peel_edges"),
      "fdet.remove_s" -> t.seconds("fdet.remove"),
      "fdet.elbow_s" -> t.seconds("fdet.elbow"),
      "fdet.blocks" -> blocks,
      "fdet.blocks_kept" -> t.counted("fdet.blocks_kept"),
      "fdet.kept_ratio" -> (if (blocks > 0) t.counted("fdet.blocks_kept") / blocks else 0.0),
      "fdet.samples" -> t.counted("fdet.samples"),
      "fdet.sample_edges" -> t.counted("fdet.sample_edges"),
      "fdet.sample_nodes" -> t.counted("fdet.sample_nodes"),
      "fdet.sample_max_s" -> t.maxSeconds("fdet.sample"),
      "sampling.s" -> t.seconds("sampling"),
      "sampling.rows" -> t.counted("sampling.rows"),
      "sampling.rows_per_edge" -> t.counted("sampling.rows") / inputEdges,
      "ensemble.s" -> ensemble,
      "ensemble.vote_s" -> t.seconds("ensemble.vote"),
      "ensemble.overhead_s" -> (if (ensemble > 0) ensemble - t.seconds("fdet.sample") / k else 0.0),
      "fraudar.collect_s" -> t.seconds("fraudar.collect"))
  }
}
