package repro.eval

import org.apache.spark.sql.SparkSession
import repro.baselines._
import repro.core._
import repro.data.{ClickLogGen, OntoGen}
import repro.eval.Datasets.MiningExample
import repro.ml.{CRFTagger, RGCN, SoftmaxTagger}

/** One runner per evaluation table (Sec. 5). Shared by the spark-submit job
  * in `jobs/` and the bench suites in `bench/`; `TablePrinter` formats them.
  */
object Tables {

  final case class PhraseScore(method: String, em: Double, f1: Double, cov: Double)
  final case class ClassScore(method: String, macroF1: Double, microF1: Double, weightedF1: Double)

  // ------------------------------------------------------------------
  // shared helpers
  // ------------------------------------------------------------------

  /** BIO labels (O=0, B=1, I=2) of `gold` tokens inside `tokens`. */
  def bioLabels(tokens: Seq[String], gold: Seq[String]): Seq[Int] = {
    val g = gold.toSet
    tokens.zipWithIndex.map { case (t, i) =>
      if (!g.contains(t)) 0
      else if (i == 0 || !g.contains(tokens(i - 1))) 1
      else 2
    }
  }

  /** Phrase = tokens tagged B/I, in order. */
  def bioDecode(tokens: Seq[String], labels: Seq[Int]): Seq[String] =
    tokens.zip(labels).collect { case (t, l) if l != 0 => t }

  def texts(ex: MiningExample): Seq[Seq[String]] =
    ex.queries.map(_.tokens) ++ ex.titles.map(_.tokens)

  def topQuery(ex: MiningExample): Seq[String] = ex.queries.head.tokens
  def topTitle(ex: MiningExample): Seq[String] = ex.titles.headOption.map(_.tokens).getOrElse(Seq.empty)

  private def score(method: String, pairs: Seq[(Seq[String], Seq[String])]): PhraseScore = {
    val (em, f1, cov) = Metrics.phraseScores(pairs)
    PhraseScore(method, em, f1, cov)
  }

  /** Default generation scale for tests vs bench. */
  final case class Scale(nConcepts: Int, nEvents: Int, epochs: Int, seed: Long = 42)
  val TestScale = Scale(160, 80, 40)
  val BenchScale = Scale(700, 380, 80)

  final case class Prepared(onto: OntoGen.GoldOntology, log: ClickLogGen.ClickLog,
                            corpus: Datasets.Corpus)

  def prepare(spark: SparkSession, s: Scale): Prepared = {
    val onto = OntoGen.generate(OntoGen.Params(
      nDerivedConcepts = s.nConcepts, nEvents = s.nEvents, seed = s.seed))
    val log = ClickLogGen.generate(spark, onto, ClickLogGen.Params(seed = s.seed + 1))
    val corpus = Datasets.build(spark, onto, log)
    Prepared(onto, log, corpus)
  }

  // ------------------------------------------------------------------
  // Tables 5–7 score the GCTSP-Net heads of a pipeline run. The
  // `(spark, prep, s)` forms serve callers without a run: each trains only
  // the head its table scores (their `spark` is unused; perfbench
  // calls these signatures). Both forms share one scoring body.
  // ------------------------------------------------------------------

  def table5(spark: SparkSession, prep: Prepared, s: Scale): Seq[PhraseScore] =
    table5(prep.corpus, GiantPipeline.trainHead(prep.corpus, GiantPipeline.ConceptHead, s.epochs))
  def table6(spark: SparkSession, prep: Prepared, s: Scale): Seq[PhraseScore] =
    table6(prep.corpus, GiantPipeline.trainHead(prep.corpus, GiantPipeline.EventHead, s.epochs))
  def table7(spark: SparkSession, prep: Prepared, s: Scale): Seq[ClassScore] =
    table7(prep.corpus, GiantPipeline.trainHead(prep.corpus, GiantPipeline.ElementHead, s.epochs))

  def table5(res: GiantPipeline.Result): Seq[PhraseScore] = table5(res.corpus, res.models.conceptMiner)
  def table6(res: GiantPipeline.Result): Seq[PhraseScore] = table6(res.corpus, res.models.eventMiner)
  def table7(res: GiantPipeline.Result): Seq[ClassScore] = table7(res.corpus, res.models.elementClassifier)

  // ------------------------------------------------------------------
  // Table 5 — concept mining on CMD
  // ------------------------------------------------------------------

  private def table5(corpus: Datasets.Corpus, model: RGCN.Params): Seq[PhraseScore] = {
    val train = corpus.train(corpus.cmd)
    val test = corpus.test(corpus.cmd)
    require(test.nonEmpty && train.nonEmpty, "empty CMD split")

    // taggers see a single text each (no cluster conditioning), per the paper
    val crfQ = new CRFTagger(3)
    crfQ.train(train.map(ex => (topQuery(ex), bioLabels(topQuery(ex), ex.gold), Set.empty[String])))
    val crfT = new CRFTagger(3)
    crfT.train(train.flatMap(ex => ex.titles.map(t =>
      (t.tokens, bioLabels(t.tokens, ex.gold), Set.empty[String]))))

    // Match patterns bootstrapped on the training corpus
    val patterns = MatchAlign.bootstrap(train.flatMap(_.queries.map(_.tokens)))

    // Match tries every query of the cluster, highest weight first
    def matchAny(ex: MiningExample): Seq[String] =
      ex.queries.iterator.map(q => MatchAlign.matchExtract(q.tokens, patterns))
        .collectFirst { case Some(p) => p }.getOrElse(Seq.empty)

    def evalAll(name: String, f: MiningExample => Seq[String]): PhraseScore =
      score(name, test.map(ex => (f(ex), ex.gold)))

    Seq(
      evalAll("TextRank", ex => TextRank.extract(texts(ex))),
      evalAll("AutoPhrase", ex => AutoPhraseLite.extract(texts(ex))),
      evalAll("Match", matchAny),
      evalAll("Align", ex => MatchAlign.alignExtract(topQuery(ex), ex.titles.map(_.tokens)).getOrElse(Seq.empty)),
      evalAll("MatchAlign", ex => MatchAlign.matchAlignExtract(topQuery(ex), ex.titles.map(_.tokens), patterns).getOrElse(Seq.empty)),
      evalAll("Q-LSTM-CRF", ex => bioDecode(topQuery(ex), crfQ.predict(topQuery(ex)))),
      evalAll("T-LSTM-CRF", ex => bioDecode(topTitle(ex), crfT.predict(topTitle(ex)))),
      evalAll("GCTSP-Net", ex => GCTSPNet.minePhrase(GiantPipeline.qtigOf(ex), model)))
  }

  // ------------------------------------------------------------------
  // Table 6 — event mining on EMD
  // ------------------------------------------------------------------

  private def table6(corpus: Datasets.Corpus, model: RGCN.Params): Seq[PhraseScore] = {
    val train = corpus.train(corpus.emd)
    val test = corpus.test(corpus.emd)
    require(test.nonEmpty && train.nonEmpty, "empty EMD split")

    val crf = new CRFTagger(3)
    crf.train(train.flatMap(ex => ex.titles.map(t =>
      (t.tokens, bioLabels(t.tokens, ex.gold), Set.empty[String]))))

    // global unconditioned LM decode — the paper's seq2seq baseline free-
    // generates and almost never reproduces the gold phrase
    val summarizer = TextSummaryLite.fit(train.flatMap(texts))

    def wq(ex: MiningExample) = ex.queries.map(q => (q.tokens, q.w))
    def wt(ex: MiningExample) = ex.titles.map(t => (t.tokens, t.w))

    def lstmCrfEvent(ex: MiningExample): Seq[String] = {
      val cands = ex.titles.map { t =>
        (bioDecode(t.tokens, crf.predict(t.tokens)), t.w)
      }.filter { case (p, _) => p.size >= 3 && p.size <= 10 }
      cands.sortBy(-_._2).headOption.map(_._1).getOrElse(Seq.empty)
    }

    def evalAll(name: String, f: MiningExample => Seq[String]): PhraseScore =
      score(name, test.map(ex => (f(ex), ex.gold)))

    Seq(
      evalAll("TextRank", ex => TextRank.extract(CoverRank.topTexts(wq(ex), wt(ex)))),
      evalAll("CoverRank", ex => CoverRank.extract(wq(ex), wt(ex))),
      evalAll("TextSummary", _ => summarizer.summarize()),
      evalAll("LSTM-CRF", lstmCrfEvent),
      evalAll("GCTSP-Net", ex => GCTSPNet.minePhrase(GiantPipeline.qtigOf(ex), model)))
  }

  // ------------------------------------------------------------------
  // Table 7 — event key elements recognition
  // ------------------------------------------------------------------

  private def table7(corpus: Datasets.Corpus, model: RGCN.Params): Seq[ClassScore] = {
    val train = corpus.train(corpus.emd)
    val test = corpus.test(corpus.emd)
    require(test.nonEmpty && train.nonEmpty, "empty EMD split")

    // The deployed task classifies every word of the event's texts, where
    // titles name bystander entities, decorations and extra modifiers.
    val tagData = train.flatMap { ex =>
      val lf = GiantPipeline.elementLabels(ex)
      ex.titles.map(t => (t.tokens, t.tokens.map(lf), Set.empty[String]))
    }
    val lstm = new SoftmaxTagger(GCTSPNet.ElementClasses)
    lstm.train(tagData)
    val lstmCrf = new CRFTagger(GCTSPNet.ElementClasses)
    lstmCrf.train(tagData)

    // evaluate over every title of every test cluster (stable token sample)
    def pairsOf(f: (MiningExample, Seq[String]) => Seq[Int]): Seq[(Int, Int)] =
      test.flatMap { ex =>
        val lf = GiantPipeline.elementLabels(ex)
        ex.titles.flatMap(t => t.tokens.map(lf).zip(f(ex, t.tokens)))
      }

    val gctspCache = collection.mutable.Map[Long, Map[String, Int]]()
    def gctsp(ex: MiningExample, tokens: Seq[String]): Seq[Int] = {
      val cls = gctspCache.getOrElseUpdate(ex.seed,
        GCTSPNet.classifyElements(GiantPipeline.qtigOf(ex), model))
      tokens.map(t => cls.getOrElse(t, GCTSPNet.ClsOther))
    }

    Seq(
      ("LSTM", pairsOf((_, t) => lstm.predict(t))),
      ("LSTM-CRF", pairsOf((_, t) => lstmCrf.predict(t))),
      ("GCTSP-Net", pairsOf(gctsp))).map { case (name, pairs) =>
      val (ma, mi, w) = Metrics.classF1s(pairs, GCTSPNet.ElementClasses)
      ClassScore(name, ma, mi, w)
    }
  }

  // ------------------------------------------------------------------
  // Tables 1–2 — ontology statistics + edge accuracy
  // ------------------------------------------------------------------

  final case class EdgeStats(kind: String, count: Long, accuracy: Double)
  final case class OntologyReport(nodeCounts: Map[String, Long],
                                  edgeStats: Seq[EdgeStats],
                                  conceptPhraseAccuracy: Double,
                                  eventPhraseAccuracy: Double)

  /** Judge every produced edge against the gold ontology (stands in for the
    * paper's human accuracy assessment of Table 2).
    */
  def judgeEdges(onto: OntoGen.GoldOntology, built: Ontology.Built): Seq[EdgeStats] = {
    val conceptNodeById = built.conceptNodes.map(n => n.id -> n).toMap
    val eventNodeById = built.eventNodes.map(n => n.id -> n).toMap
    val topicById = built.topics.toMap
    val nodeById = built.nodes.map(n => n.id -> n).toMap
    val catNameById = built.categoryIdOf.map(_.swap)

    // gold-valid concept phrases: gold tokens + their noun-phrase suffixes
    val validPhrases: Set[Seq[String]] = onto.concepts.flatMap { c =>
      c.tokens +: Derivation.properSuffixes(c.tokens).filter(Derivation.isNounPhrase)
    }.toSet

    def goldConceptsOf(nodeId: Long): Seq[OntoGen.GoldConcept] =
      conceptNodeById.get(nodeId).toSeq.flatMap(_.goldAttns.flatMap(onto.conceptById.get))
    def goldEventsOf(nodeId: Long): Seq[OntoGen.GoldEvent] =
      eventNodeById.get(nodeId).toSeq.flatMap(_.goldAttns.flatMap(onto.eventById.get))

    def ancestorOf(phrase: Seq[String], e: OntoGen.GoldEntity): Boolean =
      e.conceptIds.flatMap(onto.conceptById.get).exists { c =>
        c.tokens == phrase || Derivation.properSuffixes(c.tokens).contains(phrase)
      }

    def correct(e: Linking.Edge): Boolean = e.how match {
      case "attention-category" =>
        val cat = catNameById(e.dst)
        goldConceptsOf(e.src).exists(_.category == cat) ||
          goldEventsOf(e.src).exists(_.category == cat) ||
          topicById.get(e.src).exists(_.eventNodeIds.flatMap(goldEventsOf)
            .exists(_.category == cat))
      case "concept-suffix" =>
        val sp = nodeById(e.src).phrase; val dp = nodeById(e.dst).phrase
        validPhrases.contains(sp) && validPhrases.contains(dp) &&
          Derivation.properSuffixes(sp).contains(dp)
      case "event-topic" =>
        (topicById.get(e.dst), goldEventsOf(e.src)) match {
          case (Some(t), ges) if ges.nonEmpty =>
            ges.exists { ge =>
              t.phrase == t.conceptPhrase ++ ge.trigger &&
                ancestorOf(t.conceptPhrase, onto.entityById(ge.entityId))
            }
          case _ => false
        }
      case "topic-concept" =>
        validPhrases.contains(nodeById(e.dst).phrase)
      case "entity-concept" =>
        onto.entityById.get(e.src).exists(ancestorOf(nodeById(e.dst).phrase, _))
      case "event-entity" =>
        goldEventsOf(e.src).exists(_.entityId == e.dst)
      case "event-trigger" =>
        goldEventsOf(e.src).exists(_.trigger == nodeById(e.dst).phrase)
      case "event-location" =>
        goldEventsOf(e.src).exists(_.location.toSeq == nodeById(e.dst).phrase)
      case "entity-entity" =>
        val (a, b) = (math.min(e.src, e.dst), math.max(e.src, e.dst))
        onto.goldCorrelatePairs.contains((a, b))
      case _ => false
    }

    built.edges.groupBy(_.kind).toSeq.sortBy(_._1).map { case (kind, es) =>
      EdgeStats(kind, es.size.toLong, es.count(correct).toDouble / es.size)
    }
  }

  /** Fraction of mined nodes whose representative phrase equals the gold. */
  def phraseAccuracy(nodes: Seq[Normalize.AttentionNode],
                     goldOf: Long => Option[Seq[String]]): Double = {
    val judged = nodes.flatMap(n => n.goldAttns.headOption.flatMap(goldOf).map(g => n.phrase == g))
    if (judged.isEmpty) 0.0 else judged.count(identity).toDouble / judged.size
  }

  def tables1and2(spark: SparkSession, s: Scale): (GiantPipeline.Result, OntologyReport) = {
    val p = prepare(spark, s)
    val res = GiantPipeline.run(spark, p.onto, p.log, p.corpus, s.epochs)
    val report = OntologyReport(
      res.built.countByKind,
      judgeEdges(res.onto, res.built),
      phraseAccuracy(res.built.conceptNodes, id => res.onto.conceptById.get(id).map(_.tokens)),
      phraseAccuracy(res.built.eventNodes, id => res.onto.eventById.get(id).map(_.tokens)))
    (res, report)
  }

  // ------------------------------------------------------------------
  // Tables 3–4 — showcases
  // ------------------------------------------------------------------

  final case class ConceptShowcase(category: String, concept: String, instances: Seq[String])
  final case class EventShowcase(category: String, topic: String, events: Seq[String], entities: Seq[String])

  /** Rows of each showcase table. */
  private val ShowcaseRows = 6

  /** What both showcases read of an ontology: its nodes by id, and each
    * attention node's category name (that of its first attention-category
    * edge).
    */
  private def showcaseIndex(built: Ontology.Built): (Map[Long, Ontology.Node], collection.MapView[Long, String]) = {
    val catNameById = built.categoryIdOf.map(_.swap)
    (built.nodes.map(n => n.id -> n).toMap,
      built.edges.filter(_.how == "attention-category")
        .groupBy(_.src).view.mapValues(es => catNameById(es.head.dst)))
  }

  def table3(res: GiantPipeline.Result): Seq[ConceptShowcase] = {
    val (nodeById, catOf) = showcaseIndex(res.built)
    val instOf = res.built.edges.filter(_.how == "entity-concept")
      .groupBy(_.dst).view.mapValues(_.map(e => nodeById(e.src).phrase.mkString(" ")))
    res.built.conceptNodes
      .filter(n => catOf.contains(n.id) && instOf.getOrElse(n.id, Seq.empty).size >= 2)
      .take(ShowcaseRows)
      .map(n => ConceptShowcase(catOf(n.id), n.phrase.mkString(" "),
        instOf(n.id).take(3).toSeq))
  }

  def table4(res: GiantPipeline.Result): Seq[EventShowcase] = {
    val (nodeById, catOf) = showcaseIndex(res.built)
    val entsOf = res.built.edges.filter(_.how == "event-entity")
      .groupBy(_.src).view.mapValues(_.map(e => nodeById(e.dst).phrase.mkString(" ")))
    res.built.topics.filter(_._2.eventNodeIds.size >= 2).take(ShowcaseRows).map { case (tid, t) =>
      val evPhrases = t.eventNodeIds.flatMap(nodeById.get).map(_.phrase.mkString(" "))
      val ents = t.eventNodeIds.flatMap(e => entsOf.getOrElse(e, Seq.empty)).distinct
      EventShowcase(catOf.getOrElse(tid, "-"), t.phrase.mkString(" "),
        evPhrases.take(3), ents.take(4))
    }
  }
}
