package repro

import repro.core.GiantPipeline
import repro.eval.Tables

/** One GIANT run at 70 concepts, 45 events, 40 epochs (seed 21), shared by
  * the end-to-end specs: tests run in one JVM, so it is built once.
  */
object SharedRun {
  val scale = Tables.Scale(nConcepts = 70, nEvents = 45, epochs = 40, seed = 21)
  lazy val pipeline: (GiantPipeline.Result, Tables.OntologyReport) =
    Tables.tables1and2(SparkSpec.shared, scale)
}
