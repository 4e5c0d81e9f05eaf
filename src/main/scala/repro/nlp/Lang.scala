package repro.nlp

/** Closed synthetic language standing in for the paper's Chinese NLP stack.
  *
  * GIANT consumes word-segmented text with POS tags, NER tags and stopword
  * flags (QTIG node features, Sec. 3.1). Offline we have no Chinese NLP
  * toolchain, so the corpus is generated from this closed vocabulary whose
  * metadata is known exactly. Every token is globally unique across lexical
  * classes, so lookup is a plain map.
  */
object Lang {

  /** Part-of-speech tag set (index = feature id). */
  val PosTags: Vector[String] = Vector("NOUN", "PROPN", "ADJ", "VERB", "NUM", "STOP", "PUNCT")

  /** NER tag set (index = feature id). */
  val NerTags: Vector[String] = Vector("O", "ENT", "LOC", "TIME")

  /** Per-token metadata. */
  final case class TokenInfo(pos: String, ner: String, stop: Boolean)

  /** A category spec: head noun phrases + event trigger phrases. */
  final case class CategorySpec(name: String, heads: Vector[Seq[String]], triggers: Vector[Seq[String]])

  /** Function words — never part of a gold attention phrase. */
  val StopWords: Set[String] = Set(
    "what", "are", "the", "of", "a", "an", "in", "for", "to", "how",
    "is", "which", "who", "will", "with", "and", "this", "that", "about")

  /** Query prefixes made purely of stop words (pattern seeds for Match). */
  val QueryPrefixes: Vector[Seq[String]] = Vector(
    Seq("what", "are", "the"),
    Seq("which", "are", "the"),
    Seq("who", "are", "the"),
    Seq("about", "the"),
    Seq.empty)

  /** Content words decorating titles but never inside a gold phrase. */
  val TitleDecorations: Vector[String] =
    Vector("review", "guide", "ranking", "roundup", "overview", "analysis", "recap")

  /** Adjective pool used as concept modifiers. */
  val Modifiers: Vector[String] = Vector(
    "famous", "classic", "popular", "new", "award_winning", "cheap", "luxury",
    "vintage", "legendary", "iconic", "modern", "rare", "acclaimed", "underrated",
    "bestselling", "top", "fuel_efficient", "american", "japanese", "korean")

  val Locations: Vector[String] = Vector(
    "london", "paris", "beijing", "tokyo", "berlin", "madrid", "cairo", "sydney",
    "oslo", "dublin", "moscow", "rome", "athens", "lima", "quito", "dakar")

  val Times: Vector[String] =
    (2014 to 2019).map(_.toString).toVector ++ Vector("january", "april", "july", "october")

  val PunctTokens: Vector[String] = Vector("|", ",")

  /** 12 categories; heads are 1–2 token noun phrases, triggers 1–2 tokens (verb first). */
  val Categories: Vector[CategorySpec] = Vector(
    CategorySpec("sports",
      Vector(Seq("runner"), Seq("distance", "runner"), Seq("football", "team"), Seq("tennis", "player"), Seq("coach")),
      Vector(Seq("wins", "championship"), Seq("retires"), Seq("breaks", "record"))),
    CategorySpec("stars",
      Vector(Seq("actor"), Seq("film", "actor"), Seq("director"), Seq("comedian")),
      Vector(Seq("marries"), Seq("divorces"), Seq("wins", "award"))),
    CategorySpec("drama",
      Vector(Seq("series"), Seq("crime", "series"), Seq("sitcom"), Seq("miniseries")),
      Vector(Seq("premieres"), Seq("renewed"), Seq("cancelled"))),
    CategorySpec("fiction",
      Vector(Seq("novel"), Seq("detective", "novel"), Seq("trilogy"), Seq("anthology")),
      Vector(Seq("published"), Seq("adapted"))),
    CategorySpec("music",
      Vector(Seq("singer"), Seq("pop", "singer"), Seq("band"), Seq("composer")),
      Vector(Seq("holds", "concert"), Seq("releases", "album"), Seq("wins", "grammy"))),
    CategorySpec("cellphone",
      Vector(Seq("phone"), Seq("flagship", "phone"), Seq("tablet"), Seq("smartwatch")),
      Vector(Seq("launches"), Seq("explodes"), Seq("recalled"))),
    CategorySpec("esports",
      Vector(Seq("esports", "team"), Seq("moba", "game"), Seq("shooter", "game"), Seq("league")),
      Vector(Seq("wins", "finals"), Seq("signs", "roster"), Seq("hosts", "tournament"))),
    CategorySpec("cars",
      Vector(Seq("car"), Seq("economy", "car"), Seq("suv"), Seq("minivan"), Seq("roadster")),
      Vector(Seq("unveiled"), Seq("recalled"), Seq("crashes"))),
    CategorySpec("technology",
      Vector(Seq("startup"), Seq("ai", "startup"), Seq("chipmaker"), Seq("platform")),
      Vector(Seq("acquired"), Seq("raises", "funding"), Seq("ships", "product"))),
    CategorySpec("finance",
      Vector(Seq("bank"), Seq("investment", "bank"), Seq("fund"), Seq("insurer")),
      Vector(Seq("merges"), Seq("reports", "earnings"), Seq("collapses"))),
    CategorySpec("travel",
      Vector(Seq("resort"), Seq("beach", "resort"), Seq("airline"), Seq("cruise")),
      Vector(Seq("opens"), Seq("grounded"))),
    CategorySpec("food",
      Vector(Seq("restaurant"), Seq("family", "restaurant"), Seq("bakery"), Seq("bistro")),
      Vector(Seq("opens"), Seq("awarded", "star"))))

  /** Syllables for deterministic proper-name (entity) generation. */
  private val Syllables = Vector(
    "zor", "mal", "ka", "vex", "tan", "rel", "do", "fin", "gar", "lup",
    "nix", "pra", "qua", "sol", "tri", "umo", "vel", "wex", "yar", "bel")

  /** Deterministic entity name: 1–2 tokens of 2–3 syllables each. */
  def entityName(rng: scala.util.Random): Seq[String] = {
    def word(): String =
      (0 until (2 + rng.nextInt(2))).map(_ => Syllables(rng.nextInt(Syllables.size))).mkString
    if (rng.nextDouble() < 0.3) Seq(word(), word()) else Seq(word())
  }

  private val headTokens: Set[String] = Categories.flatMap(_.heads.flatten).toSet
  private val triggerVerbTokens: Set[String] = Categories.flatMap(_.triggers.map(_.head)).toSet
  private val triggerNounTokens: Set[String] = Categories.flatMap(_.triggers.flatMap(_.drop(1))).toSet

  /** Static vocabulary metadata (entities are resolved dynamically — any
    * token outside the static vocab is an entity name by construction).
    */
  private val staticInfo: Map[String, TokenInfo] = {
    val b = Map.newBuilder[String, TokenInfo]
    StopWords.foreach(t => b += t -> TokenInfo("STOP", "O", stop = true))
    Modifiers.foreach(t => b += t -> TokenInfo("ADJ", "O", stop = false))
    TitleDecorations.foreach(t => b += t -> TokenInfo("NOUN", "O", stop = false))
    headTokens.foreach(t => b += t -> TokenInfo("NOUN", "O", stop = false))
    triggerVerbTokens.foreach(t => b += t -> TokenInfo("VERB", "O", stop = false))
    // trigger object nouns (award, record, …) unless already a head token
    triggerNounTokens.filterNot(headTokens).foreach(t => b += t -> TokenInfo("NOUN", "O", stop = false))
    Locations.foreach(t => b += t -> TokenInfo("PROPN", "LOC", stop = false))
    Times.foreach(t => b += t -> TokenInfo("NUM", "TIME", stop = false))
    PunctTokens.foreach(t => b += t -> TokenInfo("PUNCT", "O", stop = false))
    b.result()
  }

  /** Token metadata lookup; unknown tokens are entity proper names. */
  def info(token: String): TokenInfo =
    staticInfo.getOrElse(token, TokenInfo("PROPN", "ENT", stop = false))

  def isStop(token: String): Boolean = info(token).stop
  def isPunct(token: String): Boolean = info(token).pos == "PUNCT"

  /** Non-stop, non-punctuation content tokens of a text. */
  def contentTokens(tokens: Seq[String]): Seq[String] =
    tokens.filterNot(t => isStop(t) || isPunct(t))
}
