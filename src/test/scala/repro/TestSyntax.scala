package repro

import repro.graph.QTIG

/** Views of pipeline types that only the tests use. */
object TestSyntax {

  implicit class GraphNodes(private val g: QTIG.Graph) extends AnyVal {
    /** The node id of `token`, if the graph has it. */
    def nodeOf(token: String): Option[Int] = g.tokens.indexOf(token) match {
      case -1 => None; case i => Some(i)
    }
  }
}
