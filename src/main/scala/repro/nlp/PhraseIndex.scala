package repro.nlp

import scala.collection.immutable.SortedMap

/** Dictionary of token phrases, matched against a text in one pass — the
  * word-level form of Aho & Corasick (CACM 1975) without failure links.
  *
  * The entries form a token trie keyed by first token, built once. `find`
  * walks the trie from every start position of the text, so one call costs
  * O(text length × longest phrase) plus the output, instead of
  * O(text length × dictionary size) for a `startsWith` scan per entry.
  *
  * Entries are addressed by their index in `entries`: duplicate ids and
  * duplicate phrases are separate entries and match separately. An empty
  * phrase matches at every position of the text, exactly as
  * `text.startsWith(Seq.empty, i)` does for every `i` in `text.indices`.
  *
  * @param entries (id, phrase) pairs in dictionary order
  */
final class PhraseIndex(val entries: IndexedSeq[(Long, Seq[String])]) {
  import PhraseIndex.Node

  private val root = new Node
  entries.indices.foreach { e =>
    val end = entries(e)._2.foldLeft(root)((node, t) => node.next.computeIfAbsent(t, _ => new Node))
    end.ends ::= e
  }

  /** Every match in `text`: entry index → its ascending start positions,
    * in entry order; entries that never match are absent.
    */
  def find(text: Seq[String]): SortedMap[Int, Seq[Int]] = {
    val tokens = text.toIndexedSeq
    val found = collection.mutable.TreeMap.empty[Int, collection.mutable.ArrayBuffer[Int]]
    for (i <- tokens.indices) {
      var node = root
      var j = i
      while (node != null) {
        node.ends.foreach(e => found.getOrElseUpdate(e, collection.mutable.ArrayBuffer.empty) += i)
        node = if (j < tokens.size) node.next.get(tokens(j)) else null
        j += 1
      }
    }
    SortedMap.from(found.view.mapValues(_.toSeq))
  }
}

object PhraseIndex {
  /** Trie node: the entries whose phrase ends here, and the child per next
    * token. Written only while the index is built.
    */
  private final class Node {
    var ends: List[Int] = Nil
    val next = new java.util.HashMap[String, Node](4)
  }

  def apply(entries: Seq[(Long, Seq[String])]): PhraseIndex = new PhraseIndex(entries.toIndexedSeq)
}
