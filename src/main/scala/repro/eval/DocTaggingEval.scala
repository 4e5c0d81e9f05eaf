package repro.eval

import repro.apps.DocTagging
import repro.core.GiantPipeline
import repro.nlp.PhraseIndex

/** Gold-referenced evaluation of document tagging (the Sec. 5.3 in-text
  * precision/coverage numbers): tag every generated doc with concepts and
  * events from the built ontology and judge the top tags against the
  * generator's gold attention structure.
  */
object DocTaggingEval {

  final case class Report(conceptPrecision: Double, eventPrecision: Double,
                          conceptCoverage: Double, eventCoverage: Double,
                          perCategory: Seq[(String, Double, Int)])

  def run(res: GiantPipeline.Result): Report = {
    val onto = res.onto
    val built = res.built
    val dictionary = PhraseIndex(onto.entities.map(e => (e.id, e.name)))
    val parentConcepts: Map[Long, Seq[Long]] =
      built.edges.filter(_.how == "entity-concept")
        .groupBy(_.src).view.mapValues(_.map(_.dst)).toMap
    val docById = res.log.docRows.map(d => d.doc_id -> d).toMap
    val conceptRep: Map[Long, Seq[String]] = built.conceptNodes.map { n =>
      n.id -> (n.phrase ++ n.docIds.take(5).flatMap(docById.get).flatMap(_.title))
    }.toMap
    val conceptNodeById = built.conceptNodes.map(n => n.id -> n).toMap
    val eventPhrases = built.eventNodes.map(n => (n.id, n.phrase))
    val eventNodeById = built.eventNodes.map(n => n.id -> n).toMap

    val titles = res.log.docRows.map(_.title)
    val nDocs = titles.size
    val df = titles.flatMap(_.distinct).groupBy(identity).view.mapValues(_.size).toMap

    // is a tagged concept node a correct description of this doc?
    def conceptTagCorrect(nodeId: Long, goldAttn: Long): Boolean = {
      val node = conceptNodeById.get(nodeId)
      val goldConcepts: Seq[Seq[String]] =
        onto.conceptById.get(goldAttn).map(_.tokens).toSeq ++
          onto.eventById.get(goldAttn).toSeq.flatMap { ev =>
            onto.entityById(ev.entityId).conceptIds.flatMap(onto.conceptById.get).map(_.tokens)
          }
      node.exists { n =>
        goldConcepts.exists(g => g == n.phrase || g.containsSlice(n.phrase) ||
          n.goldAttns.contains(goldAttn))
      }
    }

    var cTagged = 0; var cCorrect = 0; var eTagged = 0; var eCorrect = 0
    val perCat = collection.mutable.Map[String, (Int, Int)]().withDefaultValue((0, 0))
    for (d <- res.log.docRows) {
      val tags = DocTagging.tagConcepts(d.title, d.body, dictionary,
        parentConcepts, conceptRep, df, nDocs)
      if (tags.nonEmpty) {
        cTagged += 1
        val ok = conceptTagCorrect(tags.head._1, d.gold_attn)
        if (ok) cCorrect += 1
        val cat = d.category
        val (n, c) = perCat(cat)
        perCat(cat) = (n + 1, c + (if (ok) 1 else 0))
      }
      val eTags = DocTagging.tagEvents(d.title, d.body, eventPhrases)
      if (eTags.nonEmpty) {
        eTagged += 1
        if (eventNodeById(eTags.head._1).goldAttns.contains(d.gold_attn)) eCorrect += 1
      }
    }
    Report(
      conceptPrecision = if (cTagged == 0) 0 else cCorrect.toDouble / cTagged,
      eventPrecision = if (eTagged == 0) 0 else eCorrect.toDouble / eTagged,
      conceptCoverage = cTagged.toDouble / nDocs,
      eventCoverage = eTagged.toDouble / nDocs,
      perCategory = perCat.toSeq.sortBy(_._1).map { case (cat, (n, c)) =>
        (cat, if (n == 0) 0.0 else c.toDouble / n, n)
      })
  }
}
