package repro.data

import org.apache.spark.sql.SparkSession
import repro.nlp.Lang
import scala.util.Random

/** Synthetic search-click-log generator.
  *
  * Turns the gold ontology from [[OntoGen]] into the inputs GIANT consumes:
  * queries, documents (title + body), click edges and user query sessions.
  * Fixed noise rates mirror the messiness of real logs: stop-word query prefixes,
  * token reorderings, dropped modifiers, decorated titles with extra inserted
  * modifiers, cross-cluster noise clicks and mislabeled doc categories.
  *
  * All rows are deterministic in (ontology, seed).
  */
object ClickLogGen {

  final case class QueryRow(query_id: Long, tokens: Seq[String], kind: String,
                            gold_attn: Long, category: String)
  final case class DocRow(doc_id: Long, title: Seq[String], body: Seq[String],
                          category: String, gold_attn: Long, pub_day: Int)
  final case class ClickRow(query_id: Long, doc_id: Long, cnt: Long)
  final case class SessionRow(user_id: Long, step: Int, query_id: Long)

  /** The generated log: each table once, as driver rows in generation order. */
  final case class ClickLog(queryRows: Vector[QueryRow], docRows: Vector[DocRow],
                            clickRows: Vector[ClickRow], sessionRows: Vector[SessionRow])

  final case class Params(seed: Long)

  // Noise rates: cross-cluster noise clicks per attention query, mislabeled
  // doc categories, and the entities that get an entity query.
  private val NoiseClickProb = 0.3
  private val CategoryNoiseProb = 0.1
  private val EntityQueryFrac = 0.6

  /** Generate a query-text variant of a gold phrase.
    *
    * The canonical (first) query is kept light: at most one stop-word prefix
    * token so it survives the Algorithm-1 content filter, and it occasionally
    * misses a leading modifier — real queries are terser than titles, which
    * is what makes query-title alignment (and the QTIG) worthwhile.
    */
  private def queryVariant(gold: Seq[String], rng: Random, canonical: Boolean): Seq[String] = {
    if (canonical) {
      val prefix = if (rng.nextDouble() < 0.5) Seq.empty else Seq(Seq("the", "about")(rng.nextInt(2)))
      val t = if (gold.size > 2 && Lang.info(gold.head).pos == "ADJ" && rng.nextDouble() < 0.3)
        gold.tail else gold
      prefix ++ t
    } else {
      val prefix = Lang.QueryPrefixes(rng.nextInt(Lang.QueryPrefixes.size))
      var t = gold
      // drop one leading modifier (keep the phrase recoverable from the cluster)
      if (t.size > 2 && Lang.info(t.head).pos == "ADJ" && rng.nextDouble() < 0.3) t = t.tail
      // swap two adjacent tokens (order varies across inputs, per Sec. 3.1)
      if (t.size >= 2 && rng.nextDouble() < 0.25) {
        val i = rng.nextInt(t.size - 1)
        t = t.updated(i, t(i + 1)).updated(i + 1, t(i))
      }
      prefix ++ t
    }
  }

  /** Generate a title variant: decorations around the phrase and sometimes an
    * extra modifier inserted inside its span (what breaks pure alignment).
    */
  private def titleVariant(gold: Seq[String], rng: Random, extraSuffix: Seq[String],
                           clause: Boolean): Seq[String] = {
    var t = gold
    if (rng.nextDouble() < 0.4) {
      val mod = Lang.Modifiers(rng.nextInt(Lang.Modifiers.size))
      if (!t.contains(mod)) {
        val at = if (t.size > 1) 1 + rng.nextInt(math.min(t.size - 1, 2)) else 0
        t = (t.take(at) :+ mod) ++ t.drop(at)
      }
    }
    // event titles reorder freely ("Apple news conference 2018" vs
    // "2018 Apple news conference") — no verb-adjacency guarantee
    if (clause && t.size >= 2 && rng.nextDouble() < 0.4) {
      val i = rng.nextInt(t.size - 1)
      t = t.updated(i, t(i + 1)).updated(i + 1, t(i))
    }
    val deco = Lang.TitleDecorations(rng.nextInt(Lang.TitleDecorations.size))
    val pre = if (rng.nextDouble() < 0.7) Seq(deco) else Seq.empty
    val post = if (extraSuffix.nonEmpty && rng.nextDouble() < 0.6) extraSuffix else Seq.empty
    if (clause) {
      // punctuation-delimited clauses so events can be split into subtitles;
      // the distractor (a co-mentioned entity) sits INSIDE the main clause,
      // before or after the phrase — real event titles name bystander
      // entities on either side of the event mention
      val trail = Seq(Lang.TitleDecorations(rng.nextInt(Lang.TitleDecorations.size)))
      val core = if (post.nonEmpty && rng.nextDouble() < 0.5) post ++ t else t ++ post
      (if (pre.nonEmpty) pre :+ "|" else Seq.empty) ++ core ++ Seq("|") ++ trail
    } else pre ++ t ++ post
  }

  /** Generate the click log of `onto`.
    * `spark` is unused; it stays because perfbench calls this signature.
    */
  def generate(spark: SparkSession, onto: OntoGen.GoldOntology, p: Params): ClickLog = {
    val rng = new Random(p.seed)
    var qid = 0L
    var did = 0L
    var uid = 0L

    val queries = Vector.newBuilder[QueryRow]
    val docs = Vector.newBuilder[DocRow]
    val clicks = Vector.newBuilder[ClickRow]
    val sessions = Vector.newBuilder[SessionRow]
    // first (canonical) query id per attention — session seeds
    val firstQueryOf = collection.mutable.Map[Long, Long]()
    // docs mentioning each entity (for entity-query clicks)
    val docsOfEntity = collection.mutable.Map[Long, Vector[Long]]().withDefaultValue(Vector.empty)

    def noiseCategory(cat: String): String =
      if (rng.nextDouble() < CategoryNoiseProb)
        Lang.Categories(rng.nextInt(Lang.Categories.size)).name
      else cat

    // ---- concept clusters ----
    for (c <- onto.derivedConcepts) {
      val members = onto.entities.filter(_.conceptIds.contains(c.id))
      val nq = 2 + rng.nextInt(3)
      val qids = (0 until nq).map { i =>
        qid += 1
        queries += QueryRow(qid, queryVariant(c.tokens, rng, canonical = i == 0), "attention", c.id, c.category)
        if (i == 0) firstQueryOf(c.id) = qid
        qid
      }
      val nd = 3 + rng.nextInt(4)
      val dids = (0 until nd).map { _ =>
        did += 1
        val mentioned = rng.shuffle(members).take(math.min(members.size, 2 + rng.nextInt(3)))
        val suffix = if (mentioned.nonEmpty) mentioned.head.name else Seq.empty
        val title = titleVariant(c.tokens, rng, suffix, clause = false)
        // body sentences: entity + concept-head context (+ a co-mentioned entity)
        val body = title ++ mentioned.flatMap { e =>
          val ctx = if (rng.nextDouble() < 0.8) c.head else Seq.empty
          e.name ++ ctx ++ Seq("in")
        }
        mentioned.foreach(e => docsOfEntity(e.id) = docsOfEntity(e.id) :+ did)
        docs += DocRow(did, title, body, noiseCategory(c.category), c.id, rng.nextInt(730))
        did
      }
      for (q <- qids; d <- dids if rng.nextDouble() > 0.15)
        clicks += ClickRow(q, d, 3 + rng.nextInt(60))
    }

    // ---- event clusters ----
    for (ev <- onto.events) {
      val nq = 2 + rng.nextInt(2)
      val qids = (0 until nq).map { i =>
        qid += 1
        val toks = if (i == 0) ev.tokens else queryVariant(ev.entityTokens ++ ev.trigger, rng, canonical = false)
        queries += QueryRow(qid, toks, "attention", ev.id, ev.category)
        if (i == 0) firstQueryOf(ev.id) = qid
        qid
      }
      val topicEnts = onto.events.filter(_.topicId == ev.topicId).map(_.entityId).distinct
      val catEnts = onto.entities.filter(e => e.category == ev.category && e.id != ev.entityId)
      val nd = 3 + rng.nextInt(3)
      val dids = (0 until nd).map { _ =>
        did += 1
        // bystander entity named alongside the event: same topic when the
        // topic has one, any same-category entity otherwise
        val coEnt = topicEnts.filter(_ != ev.entityId)
        val co = if (rng.nextDouble() < 0.5) {
          if (coEnt.nonEmpty) Some(onto.entityById(coEnt(rng.nextInt(coEnt.size))))
          else if (catEnts.nonEmpty) Some(catEnts(rng.nextInt(catEnts.size)))
          else None
        } else None
        val title = titleVariant(ev.tokens, rng, co.map(_.name).getOrElse(Seq.empty), clause = true)
        val body = title ++ ev.entityTokens ++ co.map(_.name).getOrElse(Seq.empty)
        docsOfEntity(ev.entityId) = docsOfEntity(ev.entityId) :+ did
        co.foreach(e => docsOfEntity(e.id) = docsOfEntity(e.id) :+ did)
        docs += DocRow(did, title, body, noiseCategory(ev.category), ev.id,
          ev.dayOffset + rng.nextInt(3))
        did
      }
      for (q <- qids; d <- dids if rng.nextDouble() > 0.15)
        clicks += ClickRow(q, d, 3 + rng.nextInt(40))
    }

    // ---- entity queries + sessions (Fig. 4 raw material) ----
    for (e <- onto.entities if rng.nextDouble() < EntityQueryFrac) {
      val mentioning = docsOfEntity(e.id)
      if (mentioning.nonEmpty) {
        qid += 1
        queries += QueryRow(qid, e.name, "entity", e.id, e.category)
        for (d <- rng.shuffle(mentioning).take(3))
          clicks += ClickRow(qid, d, 2 + rng.nextInt(20))
        // a user searches one of the entity's concepts, then the entity
        val cids = e.conceptIds.filter(firstQueryOf.contains)
        if (cids.nonEmpty && rng.nextDouble() < 0.8) {
          uid += 1
          sessions += SessionRow(uid, 0, firstQueryOf(cids(rng.nextInt(cids.size))))
          sessions += SessionRow(uid, 1, qid)
        }
      }
    }

    // ---- cross-cluster noise clicks ----
    val qRows = queries.result()
    val dRows = docs.result()
    for (q <- qRows if q.kind == "attention" && rng.nextDouble() < NoiseClickProb) {
      val d = dRows(rng.nextInt(dRows.size))
      if (d.gold_attn != q.gold_attn) clicks += ClickRow(q.query_id, d.doc_id, 1)
    }

    ClickLog(qRows, dRows, clicks.result(), sessions.result())
  }
}
