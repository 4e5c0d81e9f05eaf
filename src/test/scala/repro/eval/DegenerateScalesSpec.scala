package repro.eval

import repro.SparkSpec
import scala.util.{Failure, Success, Try}

/** Tiny and empty scales end in a valid ontology or a named error, never in
  * a `null`, `Map.apply` or index crash.
  */
class DegenerateScalesSpec extends SparkSpec {

  /** Is `e` a failed `require` whose message names `cause` (a regex)? */
  private def named(e: Throwable, cause: String): Boolean =
    e.isInstanceOf[IllegalArgumentException] && Option(e.getMessage).exists(cause.r.findFirstIn(_).isDefined)

  private val scales = Seq((0, 0), (0, 3), (3, 0), (1, 1), (2, 2), (5, 5))

  for ((concepts, events) <- scales)
    test(s"$concepts concepts and $events events give a valid ontology or a named error") {
      Try(Tables.tables1and2(spark, Tables.Scale(concepts, events, epochs = 2, seed = 7))) match {
        case Failure(e) =>
          assert(named(e, "head \\d+ has no training graphs"), s"unexpected failure: $e")
          info(s"stops with: ${e.getMessage}")
        case Success((res, _)) =>
          val ids = res.built.nodes.map(_.id).toSet
          for (e <- res.built.edges) assert(ids(e.src) && ids(e.dst), s"dangling edge $e")
          val r = DocTaggingEval.run(res)
          val values = Seq(r.conceptPrecision, r.eventPrecision, r.conceptCoverage, r.eventCoverage) ++
            r.perCategory.map(_._2)
          for (v <- values) assert(v >= 0 && v <= 1, s"doc-tagging value $v outside [0, 1]: $r")
          Try(Tables.table5(res)) match {
            case Success(rows) => assert(rows.nonEmpty)
            case Failure(e) => assert(named(e, "empty CMD split"), s"unexpected table 5 failure: $e")
          }
      }
    }
}
