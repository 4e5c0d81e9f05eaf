package repro.core

import org.apache.spark.sql.SparkSession
import repro.Par
import repro.data.{ClickLogGen, OntoGen}
import repro.eval.Datasets
import repro.eval.Datasets.MiningExample
import repro.graph.QTIG
import repro.ml.{RGCN, RGCNTrainer}
import repro.nlp.{Lang, PhraseIndex}
import scala.collection.immutable.{SortedMap, SortedSet}

/** Attention Ontology assembly: the full GIANT pipeline (Sec. 3) from click
  * log to linked ontology, plus gold-referenced evaluation of node and edge
  * quality (Tables 1–4).
  *
  * Entities are treated as a dictionary input (the paper sources them from
  * existing knowledge bases rather than mining them); their node ids are the
  * generator's entity ids.
  */
object Ontology {

  final case class Node(id: Long, kind: String, phrase: Seq[String])

  /** Node id ranges per kind (gold entity ids live at 2e8). */
  val CategoryBase = 0L
  val ConceptNodeBase = 1000000L
  val EventNodeBase = 2000000L
  val SuffixNodeBase = 3000000L
  val TopicNodeBase = 4000000L
  val AuxNodeBase = 5000000L // triggers & locations

  final case class Built(nodes: Seq[Node], edges: Seq[Linking.Edge],
                         conceptNodes: Seq[Normalize.AttentionNode],
                         eventNodes: Seq[Normalize.AttentionNode],
                         topics: Seq[(Long, Derivation.DerivedTopic)],
                         categoryIdOf: Map[String, Long]) {
    def countByKind: Map[String, Long] =
      nodes.groupBy(_.kind).view.mapValues(_.size.toLong).toMap

    /** The canonical digest of the ontology; independent of node and edge order. */
    def digest: Digest = Digest(
      sha256(nodes.map(n => s"${n.id}|${n.kind}|${n.phrase.mkString(" ")}")),
      sha256(edges.map(e => s"${e.src}|${e.dst}|${e.kind}|${e.how}")))
  }

  /** SHA-256 (hex) of the sorted `id|kind|phrase` node lines and of the
    * sorted `src|dst|kind|how` edge lines, each line ended by a newline (a
    * phrase's tokens are joined by spaces).
    */
  final case class Digest(nodes: String, edges: String)

  private def sha256(lines: Seq[String]): String =
    java.security.MessageDigest.getInstance("SHA-256")
      .digest(lines.sorted.map(_ + "\n").mkString.getBytes("UTF-8")).map(b => f"$b%02x").mkString
}

/** End-to-end pipeline driver. */
object GiantPipeline {

  import Ontology._

  final case class TrainedModels(conceptMiner: RGCN.Params, eventMiner: RGCN.Params,
                                 elementClassifier: RGCN.Params)

  final case class Result(onto: OntoGen.GoldOntology, log: ClickLogGen.ClickLog,
                          corpus: Datasets.Corpus, models: TrainedModels,
                          built: Built)

  /** QTIG of one example's cluster. */
  def qtigOf(ex: MiningExample): QTIG.Graph =
    QTIG.build(ex.queries.map(_.tokens), ex.titles.map(_.tokens))

  /** Seed of every GCTSP-Net head's initialisation and batch order. */
  private val HeadSeed = 13L

  /** Binary labels (token in the gold phrase) of a concept or event cluster. */
  def phraseLabels(ex: MiningExample): String => Int = GCTSPNet.binaryLabels(ex.gold)

  /** 4-class key-element labels of an event cluster: only the gold event's own
    * entity, trigger and location count as elements.
    */
  def elementLabels(ex: MiningExample): String => Int =
    GCTSPNet.elementLabels(ex.goldEntity, ex.goldTrigger, ex.goldLocation)

  /** One GCTSP-Net head: the clusters it trains on, their per-token labels
    * and its class count.
    */
  final case class Head(split: Datasets.Corpus => Seq[MiningExample],
                        labels: MiningExample => String => Int, classes: Int)

  /** Concept miner (Table 5), event miner (Table 6) and key-element
    * classifier (Table 7).
    */
  val ConceptHead: Head = Head(c => c.train(c.cmd), phraseLabels, 2)
  val EventHead: Head = Head(c => c.train(c.emd), phraseLabels, 2)
  val ElementHead: Head = Head(c => c.train(c.emd), elementLabels, GCTSPNet.ElementClasses)

  /** A head's trainer input: the encoded QTIGs of its split of `corpus`. */
  private def input(corpus: Datasets.Corpus, head: Head): RGCNTrainer.Head =
    (head.split(corpus).map(ex => GCTSPNet.encode(qtigOf(ex), head.labels(ex))),
      GCTSPNet.config(head.classes))

  /** Train one GCTSP-Net head on `corpus` (on local threads). */
  def trainHead(corpus: Datasets.Corpus, head: Head, epochs: Int): RGCN.Params =
    RGCNTrainer.train(Seq(input(corpus, head)), epochs, HeadSeed).head

  /** Train the three GCTSP-Net heads in one trainer call; each is bitwise
    * equal to its own [[trainHead]].
    * `spark` is unused; it stays because perfbench calls this signature.
    */
  def trainModels(spark: SparkSession, corpus: Datasets.Corpus, epochs: Int): TrainedModels = {
    val Seq(concept, event, element) = RGCNTrainer.train(
      Seq(ConceptHead, EventHead, ElementHead).map(input(corpus, _)), epochs, HeadSeed)
    TrainedModels(concept, event, element)
  }

  /** Mine phrases for every cluster with the trained models (Algorithm 1):
    * the CMD clusters with the concept miner and the EMD clusters with the
    * event miner, each cluster one item of a [[repro.Par.map]].
    * `spark` is unused; it stays because perfbench calls this signature.
    */
  def minePhrases(spark: SparkSession, corpus: Datasets.Corpus,
                  models: TrainedModels): (Seq[Normalize.MinedPhrase], Seq[Normalize.MinedPhrase]) = {
    val work = corpus.cmd.map(_ -> models.conceptMiner) ++ corpus.emd.map(_ -> models.eventMiner)
    Par.map(work) { case (ex, miner) =>
      Normalize.MinedPhrase(ex.seed, GCTSPNet.minePhrase(qtigOf(ex), miner), ex.isEvent,
        ex.titles.map(_.tokens), ex.docIds, ex.attnId)
    }.splitAt(corpus.cmd.size)
  }

  /** Assemble and link the ontology from mined phrases. */
  def assemble(spark: SparkSession, onto: OntoGen.GoldOntology,
               log: ClickLogGen.ClickLog, corpus: Datasets.Corpus,
               models: TrainedModels,
               minedConcepts: Seq[Normalize.MinedPhrase],
               minedEvents: Seq[Normalize.MinedPhrase]): Built = {
    import spark.implicits._

    // --- nodes ---
    val conceptNodes = Normalize.normalize(minedConcepts, idBase = ConceptNodeBase)
    val eventNodes = Normalize.normalize(minedEvents, idBase = EventNodeBase)
    val categoryIdOf = Lang.Categories.map(_.name).zipWithIndex
      .map { case (n, i) => n -> (CategoryBase + i + 1) }.toMap
    val entityNodes = onto.entities.map(e => Node(e.id, "entity", e.name))

    // CSD parent concepts (DataFrame aggregation)
    val conceptDf = conceptNodes.map(n => (n.id, n.phrase)).toDF("id", "phrase")
    val existingPhrases = conceptNodes.map(_.phrase).toSet
    val suffixNodes = Derivation.commonSuffixes(spark, conceptDf)
      .collect().toSeq
      .map(r => r.getSeq[String](0))
      .filterNot(existingPhrases)
      .sortBy(_.mkString(" "))
      .zipWithIndex
      .map { case (s, i) => Node(SuffixNodeBase + i + 1, "concept", s) }

    // element recognition on event clusters (for CPD + involve edges)
    val exampleBySeed = (corpus.cmd ++ corpus.emd).map(x => x.seed -> x).toMap
    val elementsOf: Map[Long, Map[String, Int]] = Par.map(eventNodes) { n =>
      n.id -> GCTSPNet.classifyElements(qtigOf(exampleBySeed(n.seeds.head)), models.elementClassifier)
    }.toMap

    // --- concept-entity isA (Fig. 4 auto-labeled classifier) ---
    val docById = log.docRows.map(d => d.doc_id -> d).toMap
    val entityByName = onto.entities.map(e => e.name -> e).toMap
    val queryById = log.queryRows.map(q => q.query_id -> q).toMap
    val conceptById = conceptNodes.map(n => n.id -> n).toMap

    // every doc body matched once: doc → entity index (into onto.entities)
    // → ascending mention starts
    val entityIndex = PhraseIndex(onto.entities.map(e => (e.id, e.name)))
    val entityAt = onto.entities.indices.map(e => onto.entities(e).id -> e).toMap
    val mentionsOf: Map[Long, SortedMap[Int, Seq[Int]]] =
      docById.map { case (id, d) => id -> entityIndex.find(d.body) }

    // per concept node: docs, head tokens, and each doc's mentions and
    // head-token positions
    final case class DocView(mentions: SortedMap[Int, Seq[Int]], headAt: Seq[Int])
    val conceptDocs: Map[Long, Seq[ClickLogGen.DocRow]] =
      conceptNodes.map(n => n.id -> n.docIds.flatMap(docById.get)).toMap
    val headTokensOf: Map[Long, Seq[String]] = conceptNodes.map { n =>
      n.id -> n.phrase.filter(t => Lang.info(t).pos == "NOUN")
    }.toMap
    def viewOf(cid: Long, body: Seq[String], mentions: SortedMap[Int, Seq[Int]]): DocView =
      DocView(mentions, body.indices.filter(i => headTokensOf(cid).contains(body(i))))
    val conceptViews: Map[Long, Seq[DocView]] = conceptDocs.map { case (cid, docs) =>
      cid -> docs.map(d => viewOf(cid, d.body, mentionsOf(d.doc_id)))
    }
    // entities mentioned in any of a concept's docs, in onto.entities order
    val mentionedBy: Map[Long, SortedSet[Int]] = conceptViews.map { case (cid, vs) =>
      cid -> SortedSet.from(vs.flatMap(_.mentions.keys))
    }

    // session counts: concept seed query followed by an entity query
    val seedToConcept = conceptNodes.flatMap(n => n.seeds.map(_ -> n.id)).toMap
    val sessionPairs: Map[(Long, Long), Int] = {
      log.sessionRows.groupBy(_.user_id).values.flatMap { rows =>
        val sorted = rows.sortBy(_.step).map(_.query_id)
        sorted.sliding(2).collect {
          case Seq(q1, q2) =>
            for {
              cid <- seedToConcept.get(q1)
              q2row <- queryById.get(q2) if q2row.kind == "entity"
              ent <- entityByName.get(q2row.tokens)
            } yield (cid, ent.id)
        }.flatten
      }.groupBy(identity).view.mapValues(_.size).toMap
    }

    def features(cid: Long, e: Int, extra: Option[DocView]): Array[Double] = {
      val views = conceptViews(cid) ++ extra.toSeq
      val co = views.count(_.mentions.contains(e))
      val near = views.count(v => v.mentions.get(e).exists(Linking.headNear(_, v.headAt)))
      Linking.pairFeatures(co, views.size, near,
        sessionPairs.getOrElse((cid, onto.entities(e).id), 0))
    }

    val rng = new scala.util.Random(99)
    // positives: consecutive (concept, entity) sessions with a mentioning doc
    val positives = sessionPairs.keys.toSeq.sortBy(identity).flatMap { case (cid, eid) =>
      val e = entityAt(eid)
      if (mentionedBy(cid).contains(e)) Some((features(cid, e, None), true))
      else None
    }
    // negatives: same-category non-member entity inserted at a random doc position
    val entitiesOfCategory: Map[String, Seq[Int]] =
      onto.entities.indices.groupBy(onto.entities(_).category)
    val negatives = sessionPairs.keys.toSeq.sortBy(identity).flatMap { case (cid, _) =>
      val cat = exampleBySeed(conceptById(cid).seeds.head).category
      val cands = entitiesOfCategory.getOrElse(cat, Seq.empty).filterNot(mentionedBy(cid))
      if (cands.isEmpty || conceptDocs(cid).isEmpty) None
      else {
        val neg = cands(rng.nextInt(cands.size))
        val body = conceptDocs(cid)(rng.nextInt(conceptDocs(cid).size)).body
        val at = rng.nextInt(body.size + 1)
        val inserted = body.take(at) ++ onto.entities(neg).name ++ body.drop(at)
        Some((features(cid, neg, Some(viewOf(cid, inserted, entityIndex.find(inserted)))), false))
      }
    }

    // candidates: (concept, entity) pairs with at least one mentioning doc
    val candidates = for {
      n <- conceptNodes
      e <- mentionedBy(n.id).toSeq
    } yield (n.id, onto.entities(e).id, features(n.id, e, None))

    val ceEdges =
      if (positives.nonEmpty && negatives.nonEmpty)
        Linking.conceptEntityIsA(positives ++ negatives, candidates)
      else Seq.empty[Linking.Edge]

    // --- CPD topics (need entity → ancestor-concept phrases) ---
    val conceptPhraseById: Map[Long, Seq[String]] =
      (conceptNodes.map(n => n.id -> n.phrase) ++ suffixNodes.map(n => n.id -> n.phrase)).toMap
    val entityConcepts: Map[Seq[String], Seq[Seq[String]]] = {
      val direct = ceEdges.groupBy(_.src).map { case (eid, es) =>
        eid -> es.map(e => conceptPhraseById(e.dst))
      }
      // The entity dictionary (the paper's KB input) carries coarse
      // instance-of links to base (bare-head) concepts, as real KBs do;
      // the classifier above supplies the fine-grained derived memberships.
      onto.entities.map { e =>
        val kbBase = e.conceptIds.flatMap(onto.conceptById.get)
          .filter(_.parentId.isEmpty).map(_.tokens)
        val mined = direct.getOrElse(e.id, Seq.empty)
        val withAncestors = mined.flatMap { p =>
          p +: Derivation.properSuffixes(p).filter(Derivation.isNounPhrase)
        }
        e.name -> (withAncestors ++ kbBase).distinct
      }.toMap
    }
    val derivedTopics = Derivation.commonPatterns(
      eventNodes.map(n => (n.id, n.phrase)), entityConcepts)
    val topics = derivedTopics.zipWithIndex.map { case (t, i) => (TopicNodeBase + i + 1, t) }
    val topicNodes = topics.map { case (id, t) => Node(id, "topic", t.phrase) }

    // --- edges ---
    val eventDocIds = eventNodes.map(n => n.id -> n.docIds).toMap
    val nodeDocsDf = (conceptNodes.map(n => n.id -> n.docIds) ++
      eventNodes.map(n => n.id -> n.docIds) ++
      topics.map { case (id, t) => id -> t.eventNodeIds.flatMap(eventDocIds.getOrElse(_, Seq.empty)) })
      .flatMap { case (id, ds) => ds.map(d => (id, d)) }
      .toDF("node_id", "doc_id")
    val docCategoryDf = log.docRows.map(d => (d.doc_id, d.category)).toDF("doc_id", "category")
    val catEdges = Linking.categoryEdges(nodeDocsDf, docCategoryDf, categoryIdOf)

    val allConceptPairs = conceptNodes.map(n => (n.id, n.phrase)) ++
      suffixNodes.map(n => (n.id, n.phrase))
    val sufEdges = Linking.suffixIsA(allConceptPairs)
    val etEdges = Linking.eventTopicIsA(topics)
    val tcEdges = Linking.conceptTopicInvolve(allConceptPairs,
      topics.map { case (id, t) => (id, t.phrase) })

    // involve edges from element recognition
    var auxId = AuxNodeBase
    val auxNodeOf = collection.mutable.Map[(String, String), Long]()
    def nodeIdOf(kind: String, label: String): Long =
      auxNodeOf.getOrElseUpdate((kind, label), { auxId += 1; auxId })
    val invEdges = eventNodes.flatMap { n =>
      Linking.eventInvolve(n.id, n.phrase, elementsOf(n.id),
        name => entityByName.get(name).map(_.id), nodeIdOf)
    }
    val auxNodes = auxNodeOf.toSeq.sortBy(_._2).map { case ((kind, label), id) =>
      Node(id, kind, label.split(" ").toSeq)
    }

    // correlate edges from doc-body entity co-occurrence (DataFrame agg)
    val docEntities = log.docRows.flatMap { d =>
      mentionsOf(d.doc_id).keys.toSeq.map(e => (d.doc_id, onto.entities(e).id))
    }.toDF("doc_id", "entity_id")
    val coPairs = Linking.entityCooccurrence(docEntities)
      .collect().toSeq.map(r => (r.getLong(0), r.getLong(1), r.getLong(2)))
    val corrEdges = Linking.correlateEdges(onto.entities.map(_.id), coPairs)

    val categoryNodes = categoryIdOf.toSeq.sortBy(_._2).map { case (n, id) => Node(id, "category", Seq(n)) }
    val allNodes = categoryNodes ++
      conceptNodes.map(n => Node(n.id, "concept", n.phrase)) ++ suffixNodes ++
      eventNodes.map(n => Node(n.id, "event", n.phrase)) ++ topicNodes ++
      entityNodes ++ auxNodes
    val allEdges = (catEdges ++ sufEdges ++ etEdges ++ tcEdges ++ ceEdges ++ invEdges ++ corrEdges).distinct

    Built(allNodes, allEdges, conceptNodes, eventNodes, topics, categoryIdOf)
  }

  /** Train, mine and assemble the ontology from generated data. */
  def run(spark: SparkSession, onto: OntoGen.GoldOntology, log: ClickLogGen.ClickLog,
          corpus: Datasets.Corpus, epochs: Int): Result = {
    val models = trainModels(spark, corpus, epochs)
    val (mc, me) = minePhrases(spark, corpus, models)
    val built = assemble(spark, onto, log, corpus, models, mc, me)
    Result(onto, log, corpus, models, built)
  }
}
