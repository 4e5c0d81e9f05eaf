package repro.data

import repro.nlp.Lang
import scala.util.Random

/** Ground-truth Attention Ontology generator.
  *
  * The paper mines its ontology from Tencent's production click logs; offline
  * we instead *generate* a gold ontology (categories → concepts → entities,
  * triggers → events → topics) from the closed vocabulary in [[Lang]], then
  * synthesize click logs from it ([[ClickLogGen]]). Every evaluation table is
  * scored against this gold structure.
  *
  * Node id spaces are disjoint: concepts 1xx…, entities 2xx…, events 3xx…,
  * topics 4xx… (offsets of 10^8) so ids can be mixed in one edge table.
  */
object OntoGen {

  val ConceptBase = 100000000L
  val EntityBase  = 200000000L
  val EventBase   = 300000000L
  val TopicBase   = 400000000L

  /** A concept: gold phrase `tokens` = modifiers ++ head; `parentId` is the
    * bare-head base concept it derives from (None for base concepts).
    */
  final case class GoldConcept(id: Long, category: String, tokens: Seq[String],
                               head: Seq[String], parentId: Option[Long])

  final case class GoldEntity(id: Long, name: Seq[String], category: String,
                              conceptIds: Seq[Long])

  /** An event: gold phrase = entity ++ trigger ++ [location] ++ [time]. */
  final case class GoldEvent(id: Long, category: String, tokens: Seq[String],
                             entityId: Long, entityTokens: Seq[String],
                             trigger: Seq[String], location: Option[String],
                             time: Option[String], topicId: Long, dayOffset: Int)

  /** A topic: gold phrase = common concept head ++ trigger. */
  final case class GoldTopic(id: Long, category: String, tokens: Seq[String],
                             headConceptId: Long, trigger: Seq[String])

  final case class GoldOntology(concepts: Vector[GoldConcept],
                                entities: Vector[GoldEntity],
                                events: Vector[GoldEvent],
                                topics: Vector[GoldTopic]) {
    lazy val conceptById: Map[Long, GoldConcept] = concepts.map(c => c.id -> c).toMap
    lazy val entityById: Map[Long, GoldEntity] = entities.map(e => e.id -> e).toMap
    lazy val topicById: Map[Long, GoldTopic] = topics.map(t => t.id -> t).toMap
    lazy val eventById: Map[Long, GoldEvent] = events.map(e => e.id -> e).toMap

    /** Derived (non-base) concepts — these get their own click clusters. */
    def derivedConcepts: Vector[GoldConcept] = concepts.filter(_.parentId.isDefined)

    /** Gold entity↔entity correlate pairs: share a derived concept, or
      * co-occur in events of the same topic.
      */
    lazy val goldCorrelatePairs: Set[(Long, Long)] = {
      val byConcept = entities.flatMap(e => e.conceptIds.map(_ -> e.id)).groupBy(_._1)
      val viaConcept = byConcept.values.flatMap { grp =>
        val ids = grp.map(_._2)
        for (a <- ids; b <- ids if a < b) yield (a, b)
      }
      val byTopic = events.groupBy(_.topicId).values.flatMap { evs =>
        val ids = evs.map(_.entityId).distinct
        for (a <- ids; b <- ids if a < b) yield (a, b)
      }
      (viaConcept ++ byTopic).toSet
    }
  }

  /** @param nDerivedConcepts how many modifier+head concepts to generate
    * @param nEvents          how many events (topics emerge from shared
    *                         (head, trigger) patterns)
    */
  final case class Params(nDerivedConcepts: Int, nEvents: Int, seed: Long)

  /** Entities per derived concept: uniform in [MinEntities, MaxEntities]. */
  private val MinEntities = 3
  private val MaxEntities = 7

  def generate(p: Params): GoldOntology = {
    val rng = new Random(p.seed)
    var conceptId = ConceptBase
    var entityId = EntityBase
    var eventId = EventBase
    var topicId = TopicBase

    // Base concepts: one per (category, head)
    val baseConcepts = for {
      cat <- Lang.Categories
      head <- cat.heads
    } yield {
      conceptId += 1
      GoldConcept(conceptId, cat.name, head, head, None)
    }
    val baseByKey = baseConcepts.map(c => (c.category, c.head) -> c).toMap

    // Derived concepts: 1–2 modifiers + head, unique token sequence
    val seen = collection.mutable.Set[Seq[String]](baseConcepts.map(_.tokens): _*)
    val derived = Vector.newBuilder[GoldConcept]
    var guard = 0
    while (seen.size < baseConcepts.size + p.nDerivedConcepts && guard < p.nDerivedConcepts * 50) {
      guard += 1
      val cat = Lang.Categories(rng.nextInt(Lang.Categories.size))
      val head = cat.heads(rng.nextInt(cat.heads.size))
      val nMods = 1 + (if (rng.nextDouble() < 0.3) 1 else 0)
      val mods = rng.shuffle(Lang.Modifiers).take(nMods)
      val tokens = mods ++ head
      if (!seen.contains(tokens)) {
        seen += tokens
        conceptId += 1
        derived += GoldConcept(conceptId, cat.name, tokens, head, Some(baseByKey((cat.name, head)).id))
      }
    }
    val derivedConcepts = derived.result()
    val allConcepts = baseConcepts ++ derivedConcepts

    // Entities: per derived concept; some entities are shared across two
    // derived concepts with the same head (multi-membership, like Iron Man).
    // every name *token* is globally unique so a mention is never a
    // substring of another entity's mention
    val usedTokens = collection.mutable.Set[String]()
    val entities = Vector.newBuilder[GoldEntity]
    val entitiesByConcept = collection.mutable.Map[Long, Vector[Long]]().withDefaultValue(Vector.empty)
    val byHead = derivedConcepts.groupBy(c => (c.category, c.head))
    for (c <- derivedConcepts) {
      val n = MinEntities + rng.nextInt(MaxEntities - MinEntities + 1)
      for (_ <- 0 until n) {
        var name = Lang.entityName(rng)
        while (name.exists(usedTokens)) name = Lang.entityName(rng)
        usedTokens ++= name
        entityId += 1
        // membership: this concept + its base parent (+ a sibling sometimes)
        val sibling = byHead((c.category, c.head)).filter(_.id != c.id)
        val extra = if (sibling.nonEmpty && rng.nextDouble() < 0.25)
          Seq(sibling(rng.nextInt(sibling.size)).id) else Seq.empty
        val cids = (Seq(c.id, c.parentId.get) ++ extra).distinct
        entities += GoldEntity(entityId, name, c.category, cids)
        cids.foreach(cid => entitiesByConcept(cid) = entitiesByConcept(cid) :+ entityId)
      }
    }
    val allEntities = entities.result()
    val entById = allEntities.map(e => e.id -> e).toMap

    // Topics: (base head concept, trigger) patterns; events instantiate them.
    val topicByKey = collection.mutable.Map[(Long, Seq[String]), GoldTopic]()
    val events = Vector.newBuilder[GoldEvent]
    val basesWithEntities = baseConcepts.filter(b => entitiesByConcept(b.id).nonEmpty)
    for (_ <- 0 until p.nEvents if basesWithEntities.nonEmpty) {
      val base = basesWithEntities(rng.nextInt(basesWithEntities.size))
      val cat = Lang.Categories.find(_.name == base.category).get
      val trigger = cat.triggers(rng.nextInt(cat.triggers.size))
      val topic = topicByKey.getOrElseUpdate((base.id, trigger), {
        topicId += 1
        GoldTopic(topicId, base.category, base.head ++ trigger, base.id, trigger)
      })
      val ents = entitiesByConcept(base.id)
      val ent = entById(ents(rng.nextInt(ents.size)))
      val loc = if (rng.nextDouble() < 0.35) Some(Lang.Locations(rng.nextInt(Lang.Locations.size))) else None
      val time = if (rng.nextDouble() < 0.7) Some(Lang.Times(rng.nextInt(Lang.Times.size))) else None
      val tokens = ent.name ++ trigger ++ loc.toSeq ++ time.toSeq
      eventId += 1
      events += GoldEvent(eventId, base.category, tokens, ent.id, ent.name,
        trigger, loc, time, topic.id, rng.nextInt(730))
    }

    GoldOntology(allConcepts, allEntities, events.result(), topicByKey.values.toVector.sortBy(_.id))
  }
}
