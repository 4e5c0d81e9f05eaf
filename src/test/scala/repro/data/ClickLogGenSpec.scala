package repro.data

import repro.SparkSpec

class ClickLogGenSpec extends SparkSpec {

  private lazy val onto = OntoGen.generate(OntoGen.Params(nDerivedConcepts = 40, nEvents = 25, seed = 2))
  private lazy val log = ClickLogGen.generate(spark, onto, ClickLogGen.Params(seed = 3))

  test("every attention has at least one cluster of queries and docs") {
    val attns = onto.derivedConcepts.map(_.id) ++ onto.events.map(_.id)
    val qAttns = log.queryRows.filter(_.kind == "attention").map(_.gold_attn).toSet
    val dAttns = log.docRows.map(_.gold_attn).toSet
    for (a <- attns) { assert(qAttns.contains(a)); assert(dAttns.contains(a)) }
  }

  test("canonical (first) query of a concept contains the gold phrase or its head variant") {
    for (c <- onto.derivedConcepts) {
      val q = log.queryRows.filter(q => q.gold_attn == c.id && q.kind == "attention").minBy(_.query_id)
      assert(q.tokens.containsSlice(c.tokens) || q.tokens.containsSlice(c.tokens.tail),
        s"${q.tokens} vs ${c.tokens}")
    }
  }

  test("canonical concept query survives the content filter") {
    for (c <- onto.derivedConcepts) {
      val q = log.queryRows.filter(q => q.gold_attn == c.id && q.kind == "attention").minBy(_.query_id)
      assert(repro.graph.ClickGraph.mostlyContent(q.tokens), s"${q.tokens}")
    }
  }

  test("canonical query of an event is exactly the gold phrase") {
    for (ev <- onto.events) {
      val q = log.queryRows.filter(q => q.gold_attn == ev.id && q.kind == "attention").minBy(_.query_id)
      assert(q.tokens == ev.tokens)
    }
  }

  test("clicks reference existing queries and docs") {
    val qids = log.queryRows.map(_.query_id).toSet
    val dids = log.docRows.map(_.doc_id).toSet
    for (c <- log.clickRows) { assert(qids.contains(c.query_id)); assert(dids.contains(c.doc_id)) }
  }

  test("most clicks connect a query to its own cluster's docs") {
    val qAttn = log.queryRows.map(q => q.query_id -> q.gold_attn).toMap
    val dAttn = log.docRows.map(d => d.doc_id -> d.gold_attn).toMap
    val attnClicks = log.clickRows.filter(c => log.queryRows(c.query_id.toInt - 1).kind == "attention")
    val same = attnClicks.count(c => qAttn(c.query_id) == dAttn(c.doc_id))
    assert(same.toDouble / attnClicks.size > 0.7)
  }

  test("event titles contain punctuation for subtitle splitting") {
    val evDocs = log.docRows.filter(d => onto.eventById.contains(d.gold_attn))
    assert(evDocs.forall(_.title.contains("|")))
  }

  test("doc categories mostly match the gold attention's category") {
    val catOf = (onto.concepts.map(c => c.id -> c.category) ++
      onto.events.map(e => e.id -> e.category)).toMap
    val ok = log.docRows.count(d => catOf.get(d.gold_attn).contains(d.category))
    assert(ok.toDouble / log.docRows.size > 0.8)
  }

  test("sessions pair a concept query with an entity query") {
    val byUser = log.sessionRows.groupBy(_.user_id)
    assert(byUser.nonEmpty)
    val qById = log.queryRows.map(q => q.query_id -> q).toMap
    for ((_, rows) <- byUser) {
      val sorted = rows.sortBy(_.step).map(r => qById(r.query_id))
      assert(sorted.head.kind == "attention")
      assert(sorted.last.kind == "entity")
    }
  }

  test("generation is deterministic") {
    val again = ClickLogGen.generate(spark, onto, ClickLogGen.Params(seed = 3))
    assert(again == log)
  }

  test("entity queries exist and use the entity name as tokens") {
    val eqs = log.queryRows.filter(_.kind == "entity")
    assert(eqs.nonEmpty)
    for (q <- eqs) assert(onto.entityById(q.gold_attn).name == q.tokens)
  }
}
