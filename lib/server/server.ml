module Index = Xr_index.Index
module Engine = Xr_refine.Engine
module Generation = Xr_ingest.Generation
module Ingest = Xr_ingest.Ingest

type address = Tcp of string * int | Unix_socket of string

type config = {
  addr : address;
  domains : int;
  queue_bound : int;
  cache_capacity : int;
  cache_shards : int;
  deadline_ms : float;
  keepalive_requests : int;
  result_limit : int;
  limits : Http.limits;
  log : bool;
  trace : bool;  (* per-request span recording + /debug/trace *)
  slow_query_ms : float;  (* log requests at or above this; 0 = off *)
  shards : int;  (* serving shards; 0 = one per corpus *)
  ingest_queue : int;  (* per-corpus ingest queue bound *)
  ingest_batch : int;  (* max documents merged per generation *)
  batch : bool;  (* compiled plans + single-flight request coalescing *)
  coalesce_window_ms : float;  (* leader wait before rendering; 0 = no added latency *)
  plan_cache_capacity : int;  (* per-corpus compiled-plan entries *)
}

let default_config =
  {
    addr = Tcp ("127.0.0.1", 8080);
    domains = Domain.recommended_domain_count ();
    queue_bound = 64;
    cache_capacity = 512;
    cache_shards = 8;
    deadline_ms = 5000.;
    keepalive_requests = 1000;
    result_limit = 20;
    limits = Http.default_limits;
    log = false;
    trace = true;
    slow_query_ms = 0.;
    shards = 0;
    ingest_queue = 256;
    ingest_batch = 32;
    batch = true;
    coalesce_window_ms = 0.;
    plan_cache_capacity = 512;
  }

type corpus_spec = { name : string; index : Index.t; kv : Xr_store.Kv.t option }

(* One live corpus: its generation chain, its write path, and the
   completion trie for the current generation (swapped on publish). *)
type corpus_state = {
  cname : string;
  shard_id : int;
  gens : Generation.t;
  ingest : Ingest.t;
  ctrie : Xr_text.Trie.t Atomic.t;
  plans : Xr_batch.Plan_cache.t option;
      (* compiled query plans, keyed by generation id — a publish
         retires them by keyspace, no invalidation hook needed *)
}

(* One serving shard: a subset of the corpora plus its own result cache.
   Cache keys embed the pinned generation ids, so an entry written for
   generation N can never answer a request admitted at N+1 — the cache
   is also cleared on publish, but the tag closes the race where a
   reader still on N inserts after the clear. *)
type shard = {
  sid : int;
  corpora : corpus_state array;
  cache : Lru.t;
  flights : Xr_batch.Coalesce.t option;
      (* single-flight admission on cache misses: concurrent identical
         requests coalesce onto one render *)
}

type conn = { fd : Unix.file_descr; accepted_at : float }

type t = {
  config : config;
  shards : shard array;
  single : bool;  (* exactly one corpus: serve the legacy (byte-stable) schemas *)
  server_metrics : Metrics.t;
  listen_fd : Unix.file_descr;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  pool : conn Pool.t;
  log_lock : Mutex.t;
}

let metrics t = t.server_metrics

let cache t = t.shards.(0).cache

let queue_depth t = Pool.depth t.pool

let iter_corpora t f = Array.iter (fun s -> Array.iter (f s) s.corpora) t.shards

let corpora_names t =
  let acc = ref [] in
  iter_corpora t (fun _ cs -> acc := cs.cname :: !acc);
  List.rev !acc

let find_corpus t name =
  let found = ref None in
  iter_corpora t (fun _ cs -> if cs.cname = name then found := Some cs);
  !found

let combined_cache_stats t =
  Array.fold_left
    (fun (acc : Lru.stats) s ->
      let st = Lru.stats s.cache in
      {
        Lru.hits = acc.Lru.hits + st.Lru.hits;
        misses = acc.Lru.misses + st.Lru.misses;
        entries = acc.Lru.entries + st.Lru.entries;
        evictions = acc.Lru.evictions + st.Lru.evictions;
        capacity = acc.Lru.capacity + st.Lru.capacity;
        shards = acc.Lru.shards + st.Lru.shards;
      })
    { Lru.hits = 0; misses = 0; entries = 0; evictions = 0; capacity = 0; shards = 0 }
    t.shards

(* ---- request-scoped corpus attribution ---------------------------------- *)

(* Which (corpus, generation) pairs a request was actually
   served from — recorded at pin time in [shard_body], consumed by the
   slow-query log so a slow line stays attributable after a publish has
   swapped the index. Ambient like the tracing context; [fan_out]
   re-installs it on pool domains. Only installed when the slow-query
   log is armed, so normal serving never touches it. *)
module Served = struct
  type sink = { sm : Mutex.t; mutable items : (string * int) list }

  let key : sink option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

  let current () = Domain.DLS.get key

  let install s f =
    match s with
    | None -> f ()
    | Some _ ->
      let saved = Domain.DLS.get key in
      Domain.DLS.set key s;
      Fun.protect ~finally:(fun () -> Domain.DLS.set key saved) f

  let with_sink f =
    let s = { sm = Mutex.create (); items = [] } in
    let saved = Domain.DLS.get key in
    Domain.DLS.set key (Some s);
    Fun.protect
      ~finally:(fun () -> Domain.DLS.set key saved)
      (fun () ->
        let v = f () in
        (v, List.rev s.items))

  let note cname (gen : Generation.gen) =
    match Domain.DLS.get key with
    | None -> ()
    | Some s ->
      let item = (cname, gen.Generation.id) in
      Mutex.protect s.sm (fun () ->
          if not (List.mem item s.items) then s.items <- item :: s.items)
end

(* ---- request handling --------------------------------------------------- *)

let bad_request msg = Http.json_response ~status:400 (Api.error_payload msg)

let tokenized_query req =
  Xr_obs.Tracing.with_span "parse" (fun () ->
      match Http.query_param req "q" with
      | None -> Error (bad_request "missing query parameter q")
      | Some raw -> (
        match Xr_xml.Token.tokenize raw with
        | [] -> Error (bad_request "query has no keywords")
        | toks -> Ok toks))

let int_param req name ~default =
  match Http.query_param req name with
  | None -> Ok default
  | Some v -> (
    match int_of_string_opt v with
    | Some i -> Ok i
    | None -> Error (bad_request (Printf.sprintf "parameter %s must be an integer" name)))

(* [k] sizes a top-k list; below 1 the answer would be an empty list
   indistinguishable from a real "nothing found", so it fails closed. *)
let positive_k req ~default =
  match int_param req "k" ~default with
  | Ok k when k < 1 -> Error (bad_request "parameter k must be at least 1")
  | r -> r

let bool_param req name =
  match Http.query_param req name with
  | Some ("true" | "1" | "yes") -> true
  | _ -> false

(* The corpora a request addresses: all of them, or the one named by
   [?corpus=] (scatter-gather restricted to a single member). *)
let served_corpora t req =
  match Http.query_param req "corpus" with
  | None -> Ok None
  | Some name -> (
    match find_corpus t name with
    | Some _ -> Ok (Some name)
    | None ->
      Error (Http.json_response ~status:404 (Api.error_payload ("unknown corpus " ^ name))))

let shard_members shard only =
  match only with
  | None -> Array.to_list shard.corpora
  | Some name -> List.filter (fun cs -> cs.cname = name) (Array.to_list shard.corpora)

(* Per-shard cached evaluation. Pins every served corpus of the shard,
   tags the cache key with the pinned generation ids, and either serves
   the cached body or renders [render pins] and caches it. The cached
   unit is the serialized body, so hits are byte-identical to the
   response that populated them. *)
let shard_body ?(cache = true) shard members ~base_key ~render =
  let pins = List.map (fun cs -> (cs, Generation.pin cs.gens)) members in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (_, g) -> Generation.unpin g) pins)
  @@ fun () ->
  List.iter (fun (cs, g) -> Served.note cs.cname g) pins;
  let gsig =
    String.concat ","
      (List.map (fun (_, g) -> string_of_int g.Generation.id) pins)
  in
  let key = Printf.sprintf "g%s|%s" gsig base_key in
  if not cache then
    (* ANALYZE runs report fresh actuals: no cache read or write, no
       coalescing onto another request's render. *)
    (render pins, false)
  else
    match Xr_obs.Tracing.with_span "cache" (fun () -> Lru.find shard.cache key) with
    | Some body -> (body, true)
    | None -> (
      match shard.flights with
      | None ->
        let body = render pins in
        Lru.add shard.cache key body;
        (body, false)
      | Some flights ->
        (* Single-flight on the generation-tagged key: every member of a
           coalesced flight pinned the same generations (key equality),
           so the leader's bytes answer all of them. Followers count as
           cache hits — they were served without rendering. *)
        let body, follower = Xr_batch.Coalesce.run flights ~key (fun () -> render pins) in
        if not follower then Lru.add shard.cache key body;
        (body, follower))

(* Fan a computation out over the shards that serve this request. One
   shard runs inline; several go through the shared domain pool (the
   scatter of scatter-gather). Results come back in shard order. *)
let fan_out tasks =
  match tasks with
  | [| task |] -> [| task () |]
  | tasks ->
    let n = Array.length tasks in
    let out = Array.make n None in
    let sink = Served.current () in
    Xr_pool.run
      (Xr_pool.global ())
      (Array.mapi
         (fun i task () ->
           out.(i) <-
             Some (try Ok (Served.install sink task) with e -> Error e))
         tasks);
    Array.map
      (function Some (Ok v) -> v | Some (Error e) -> raise e | None -> assert false)
      out

let json_body body headers = Http.response ~status:200 ~headers body

let cache_headers hit =
  [ ("content-type", "application/json"); ("x-cache", (if hit then "hit" else "miss")) ]

(* Evaluate a cacheable endpoint. [render_one] renders a single corpus
   at a pinned generation (handed whole, so plan caches can key on its
   id) to its (legacy, byte-stable) payload. In single-corpus mode the
   response body is exactly that payload; with several corpora each
   shard caches a JSON list of corpus-wrapped payloads and [merge]
   combines the parsed partials. *)
let gather ?cache t req ~base_key ~render_one ~merge =
  match served_corpora t req with
  | Error resp -> resp
  | Ok only ->
    let shards =
      List.filter
        (fun (_, members) -> members <> [])
        (List.map (fun s -> (s, shard_members s only)) (Array.to_list t.shards))
    in
    if t.single then
      let shard, members = List.hd shards in
      let body, hit =
        shard_body ?cache shard members ~base_key ~render:(fun pins ->
            let cs, gen = List.hd pins in
            Json.to_string (render_one cs gen) ^ "\n")
      in
      json_body body (cache_headers hit)
    else
      let render pins =
        Json.to_string
          (Json.List
             (List.map
                (fun (cs, gen) ->
                  match render_one cs gen with
                  | Json.Obj fields ->
                    Json.Obj (("corpus", Json.String cs.cname) :: fields)
                  | j -> j)
                pins))
      in
      let partials =
        fan_out
          (Array.of_list
             (List.map
                (fun (shard, members) () -> shard_body ?cache shard members ~base_key ~render)
                shards))
      in
      let parsed =
        List.concat_map
          (fun (body, _) ->
            match Json.of_string body with
            | Ok (Json.List l) -> l
            | Ok j -> [ j ]
            | Error _ -> [])
          (Array.to_list partials)
      in
      let hit = Array.for_all (fun (_, h) -> h) partials in
      let body = Json.to_string (merge parsed) ^ "\n" in
      json_body body (cache_headers hit)

(* ---- merge helpers for the gather (multi-corpus) schemas -------------- *)

let json_str name j =
  match Json.member name j with Some (Json.String s) -> s | _ -> ""

let json_int name j = match Json.member name j with Some (Json.Int n) -> n | _ -> 0

let json_list name j = match Json.member name j with Some (Json.List l) -> l | _ -> []

let json_float name j =
  match Json.member name j with
  | Some (Json.Float f) -> f
  | Some (Json.Int n) -> float_of_int n
  | _ -> 0.

(* Tag each result item with its corpus and merge the per-corpus ranked
   lists: score descending, ties by (corpus, dewey) so the order is
   deterministic across runs and cache states. *)
let merge_search t ~query ~ranked ~limit parsed =
  let items =
    List.concat_map
      (fun payload ->
        let corpus = json_str "corpus" payload in
        List.map
          (fun item ->
            match item with
            | Json.Obj fields -> Json.Obj (("corpus", Json.String corpus) :: fields)
            | j -> j)
          (json_list "results" payload))
      parsed
  in
  let items =
    if ranked then
      List.stable_sort
        (fun a b ->
          let c = Float.compare (json_float "score" b) (json_float "score" a) in
          if c <> 0 then c
          else
            let c = String.compare (json_str "corpus" a) (json_str "corpus" b) in
            if c <> 0 then c
            else String.compare (json_str "dewey" a) (json_str "dewey" b))
        items
    else items
  in
  let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> [] in
  let items = if limit < 0 then items else take limit items in
  Json.Obj
    [
      ("query", Json.List (List.map (fun k -> Json.String k) query));
      ("count", Json.Int (List.fold_left (fun a p -> a + json_int "count" p) 0 parsed));
      ("ranked", Json.Bool ranked);
      ("shards", Json.Int (Array.length t.shards));
      ("corpora", Json.List (List.map (fun n -> Json.String n) (corpora_names t)));
      ("results", Json.List items);
    ]

(* Refine/suggest outcomes are corpus-local (refinement candidates are
   scored against one corpus's statistics), so the gather keeps them
   side by side instead of inventing a cross-corpus ranking. *)
let merge_by_corpus t ~query parsed =
  Json.Obj
    [
      ("query", Json.List (List.map (fun k -> Json.String k) query));
      ("shards", Json.Int (Array.length t.shards));
      ("corpora", Json.List parsed);
    ]

let merge_complete ~prefix ~k parsed =
  let tally = Hashtbl.create 32 in
  List.iter
    (fun payload ->
      List.iter
        (fun item ->
          let w = json_str "keyword" item in
          let n = json_int "occurrences" item in
          Hashtbl.replace tally w (n + try Hashtbl.find tally w with Not_found -> 0))
        (json_list "completions" payload))
    parsed;
  let merged =
    Hashtbl.fold (fun w n acc -> (w, n) :: acc) tally []
    |> List.sort (fun (wa, na) (wb, nb) ->
           let c = Int.compare nb na in
           if c <> 0 then c else String.compare wa wb)
  in
  let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> [] in
  Api.complete_payload ~prefix (take k merged)

(* ---- endpoint handlers ------------------------------------------------ *)

(* Attach EXPLAIN (and ANALYZE) blocks to one corpus render. The plan
   block is built first so its compile (and possible measure pass) is
   not charged to the execution's GC delta; ANALYZE installs the
   collection channel, times the render, and captures the handler-side
   GC around exactly the computation. *)
let with_introspection ~explain_p ~analyze ~explain compute =
  if not explain_p then compute ()
  else begin
    let xfield = ("explain", explain ()) in
    if not analyze then
      match compute () with
      | Json.Obj fields -> Json.Obj (fields @ [ xfield ])
      | j -> j
    else begin
      let g0 = Xr_obs.Runtime.capture () in
      let t0 = Xr_obs.Tracing.now_ns () in
      let payload, report = Xr_obs.Analyze.with_report compute in
      let ms = Int64.to_float (Int64.sub (Xr_obs.Tracing.now_ns ()) t0) /. 1e6 in
      let gc = Xr_obs.Runtime.delta g0 in
      let spans =
        (* completed children of the open request trace: the per-stage
           durations this render just produced *)
        match Xr_obs.Tracing.current_trace_id () with
        | 0 -> []
        | tid ->
          List.filter
            (fun (s : Xr_obs.Tracing.span) -> s.Xr_obs.Tracing.parent_id <> 0)
            (Xr_obs.Tracing.spans_of_trace tid)
      in
      match payload with
      | Json.Obj fields ->
        Json.Obj
          (fields @ [ xfield; ("analyze", Api.analyze_payload ~ms ~gc ~spans report) ])
      | j -> j
    end
  end

let handle_search t req =
  let ( let* ) r f = match r with Error resp -> resp | Ok v -> f v in
  let* query = tokenized_query req in
  let alg_name =
    match Http.query_param req "alg" with Some a -> a | None -> "scan-packed"
  in
  match Xr_slca.Engine.of_name alg_name with
  | None -> bad_request (Printf.sprintf "unknown SLCA engine %s" alg_name)
  | Some slca ->
    let rank = bool_param req "rank" in
    let analyze = bool_param req "analyze" in
    let explain_p = bool_param req "explain" || analyze in
    let* limit = int_param req "limit" ~default:t.config.result_limit in
    let base_key =
      Printf.sprintf "search|%s|%b|%d|%s%s" alg_name rank limit (String.concat " " query)
        (if explain_p then if analyze then "|analyze" else "|explain" else "")
    in
    let render_one cs (gen : Generation.gen) =
      let index = gen.Generation.index in
      let config = { Engine.default_config with Engine.slca } in
      let compute () =
        let slcas =
          match cs.plans with
          | None -> Engine.search ~config index query
          | Some plans -> (
            (* the generation id in the key scopes the plan to exactly the
               pinned snapshot; a publish shifts the keyspace and the old
               plans age out *)
            let pkey =
              Printf.sprintf "s|%d|%s|%s" gen.Generation.id alg_name
                (String.concat " " query)
            in
            match
              Xr_batch.Plan_cache.find_or_compile plans ~key:pkey (fun () ->
                  Xr_batch.Plan_cache.Search (Xr_batch.Plan.compile_search ~config index query))
            with
            | Xr_batch.Plan_cache.Search plan -> Xr_batch.Plan.run_search ~config plan index
            | Xr_batch.Plan_cache.Refine _ -> Engine.search ~config index query)
        in
        let entries =
          if rank then
            let ids = List.filter_map (Xr_xml.Doc.keyword_id index.Index.doc) query in
            Xr_slca.Result_rank.rank index.Index.stats ~query:ids slcas
          else List.map (fun d -> (d, 0.)) slcas
        in
        Api.search_payload index ~query ~ranked:rank ~limit entries
      in
      with_introspection ~explain_p ~analyze
        ~explain:(fun () ->
          Api.explain_payload (Xr_batch.Plan.explain_search ~config index query))
        compute
    in
    gather ~cache:(not analyze) t req ~base_key ~render_one
      ~merge:(merge_search t ~query ~ranked:rank ~limit)

let handle_refine t req =
  let ( let* ) r f = match r with Error resp -> resp | Ok v -> f v in
  let* query = tokenized_query req in
  let alg_name =
    match Http.query_param req "alg" with Some a -> a | None -> "partition"
  in
  match Engine.algorithm_of_name alg_name with
  | None -> bad_request (Printf.sprintf "unknown refinement algorithm %s" alg_name)
  | Some algorithm ->
    (* the refinement top-k lists need room for at least one query *)
    let* k = positive_k req ~default:3 in
    let* limit = int_param req "limit" ~default:t.config.result_limit in
    let analyze = bool_param req "analyze" in
    let explain_p = bool_param req "explain" || analyze in
    let base_key =
      Printf.sprintf "refine|%s|%d|%d|%s%s" alg_name k limit (String.concat " " query)
        (if explain_p then if analyze then "|analyze" else "|explain" else "")
    in
    let render_one cs (gen : Generation.gen) =
      let index = gen.Generation.index in
      let config = { Engine.default_config with Engine.k; algorithm } in
      let compute () =
        let resp =
          match cs.plans with
          | None -> Engine.refine ~config index query
          | Some plans -> (
            (* the compiled rule list depends only on the query and the
               generation — not on [k] or the refinement algorithm — so
               one plan serves every (k, alg) combination *)
            let pkey =
              Printf.sprintf "r|%d|%s" gen.Generation.id (String.concat " " query)
            in
            match
              Xr_batch.Plan_cache.find_or_compile plans ~key:pkey (fun () ->
                  Xr_batch.Plan_cache.Refine (Xr_batch.Plan.compile_refine ~config index query))
            with
            | Xr_batch.Plan_cache.Refine plan ->
              Xr_batch.Plan.run_refine ~config plan index query
            | Xr_batch.Plan_cache.Search _ -> Engine.refine ~config index query)
        in
        Api.refine_payload index ~query ~limit resp
      in
      with_introspection ~explain_p ~analyze
        ~explain:(fun () ->
          Api.explain_refine_payload (Xr_batch.Plan.explain_refine ~config index query))
        compute
    in
    gather ~cache:(not analyze) t req ~base_key ~render_one ~merge:(merge_by_corpus t ~query)

let handle_suggest t req =
  let ( let* ) r f = match r with Error resp -> resp | Ok v -> f v in
  let* query = tokenized_query req in
  let* k = positive_k req ~default:5 in
  let* limit = int_param req "limit" ~default:t.config.result_limit in
  let base_key = Printf.sprintf "suggest|%d|%d|%s" k limit (String.concat " " query) in
  let render_one _cs (gen : Generation.gen) =
    let index = gen.Generation.index in
    let config = { Xr_refine.Specialize.default_config with Xr_refine.Specialize.k } in
    let suggestions = Xr_refine.Specialize.suggest ~config index query in
    Api.suggest_payload index ~query ~limit suggestions
  in
  gather t req ~base_key ~render_one ~merge:(merge_by_corpus t ~query)

let handle_complete t req =
  let ( let* ) r f = match r with Error resp -> resp | Ok v -> f v in
  let prefix =
    match Http.query_param req "prefix" with
    | Some p -> Some p
    | None -> Http.query_param req "q"
  in
  match prefix with
  | None -> bad_request "missing query parameter prefix"
  | Some raw ->
    let prefix = Xr_xml.Token.normalize raw in
    if prefix = "" then bad_request "prefix has no keyword characters"
    else
      let* k = positive_k req ~default:10 in
      let base_key = Printf.sprintf "complete|%d|%s" k prefix in
      let render_one cs (_gen : Generation.gen) =
        Api.complete_payload ~prefix
          (Xr_text.Trie.complete (Atomic.get cs.ctrie) ~limit:k prefix)
      in
      gather t req ~base_key ~render_one ~merge:(merge_complete ~prefix ~k)

let handle_ingest t req =
  let cs =
    match Http.query_param req "corpus" with
    | Some name -> (
      match find_corpus t name with
      | Some cs -> Ok cs
      | None ->
        Error (Http.json_response ~status:404 (Api.error_payload ("unknown corpus " ^ name))))
    | None ->
      if t.single then Ok t.shards.(0).corpora.(0)
      else Error (bad_request "several corpora are served; pass ?corpus=NAME")
  in
  match cs with
  | Error resp -> resp
  | Ok cs -> (
    if String.trim req.Http.body = "" then bad_request "empty body: POST the XML document"
    else
      match Ingest.submit_string cs.ingest req.Http.body with
      | Error (Ingest.Parse _ as e) -> bad_request (Ingest.error_to_string e)
      | Error e ->
        Http.json_response ~status:503
          ~headers:[ ("retry-after", "1") ]
          (Api.error_payload (Ingest.error_to_string e))
      | Ok () ->
        let sync = bool_param req "sync" in
        let generation =
          if sync then Ingest.flush cs.ingest else Generation.current_id cs.gens
        in
        Http.json_response
          (Json.Obj
             [
               ("accepted", Json.Bool true);
               ("corpus", Json.String cs.cname);
               ("shard", Json.Int cs.shard_id);
               ("generation", Json.Int generation);
               ("queue_depth", Json.Int (Ingest.queue_depth cs.ingest));
               ("synced", Json.Bool sync);
             ]))

let plan_entries t =
  let acc = ref 0 in
  iter_corpora t (fun _ cs ->
      match cs.plans with Some p -> acc := !acc + Xr_batch.Plan_cache.size p | None -> ());
  !acc

let handle_stats t =
  let batch = Api.batch_payload ~enabled:t.config.batch ~plan_entries:(plan_entries t) () in
  if t.single then
    let cs = t.shards.(0).corpora.(0) in
    Generation.with_pinned cs.gens (fun gen ->
        Http.json_response
          (Api.stats_payload ~pool:(Api.pool_payload ()) ~batch gen.Generation.index))
  else
    let corpora = ref [] in
    iter_corpora t (fun shard cs ->
        let payload =
          Generation.with_pinned cs.gens (fun gen ->
              Api.stats_payload gen.Generation.index)
        in
        let fields = match payload with Json.Obj f -> f | j -> [ ("stats", j) ] in
        corpora :=
          Json.Obj
            (("corpus", Json.String cs.cname)
            :: ("shard", Json.Int shard.sid)
            :: ("generation", Json.Int (Generation.current_id cs.gens))
            :: fields)
          :: !corpora);
    Http.json_response
      (Json.Obj
         [
           ("shards", Json.Int (Array.length t.shards));
           ("corpora", Json.List (List.rev !corpora));
           ("pool", Api.pool_payload ());
           ("batch", batch);
         ])

let handle t (req : Http.request) =
  match (req.Http.path, req.Http.meth) with
  | "/ingest", Http.POST -> handle_ingest t req
  | "/ingest", _ ->
    Http.json_response ~status:405 (Api.error_payload "only POST is supported on /ingest")
  | _, m when m <> Http.GET ->
    Http.json_response ~status:405 (Api.error_payload "only GET is supported")
  | path, _ -> (
    match path with
    | "/health" -> Http.json_response (Json.Obj [ ("status", Json.String "ok") ])
    | "/metrics" ->
      (* Prometheus text exposition of the whole process registry; the
         legacy JSON document moved to /metrics.json. *)
      Http.response ~status:200
        ~headers:[ ("content-type", Xr_obs.Expo.content_type) ]
        (Xr_obs.Expo.render (Xr_obs.Registry.default ()))
    | "/metrics.json" ->
      Http.json_response
        (Metrics.snapshot t.server_metrics ~queue_depth:(Pool.depth t.pool)
           ~workers:(Pool.domains t.pool) ~cache:(combined_cache_stats t))
    | "/debug/trace" -> (
      match Http.query_param req "id" with
      | Some id -> (
        (* exact-trace lookup: the path exemplars and slow-query log
           lines point at *)
        match int_of_string_opt id with
        | None -> bad_request "parameter id must be an integer"
        | Some tid -> (
          match Xr_obs.Tracing.spans_of_trace tid with
          | [] ->
            Http.json_response ~status:404
              (Api.error_payload (Printf.sprintf "no recorded trace %d" tid))
          | spans -> Http.json_response (Api.trace_payload [ (tid, spans) ])))
      | None -> (
        match int_param req "last" ~default:16 with
        | Error resp -> resp
        | Ok last ->
          let last = min (max last 0) 256 in
          Http.json_response (Api.trace_payload (Xr_obs.Tracing.recent_traces last))))
    | "/stats" -> handle_stats t
    | "/search" -> handle_search t req
    | "/refine" -> handle_refine t req
    | "/suggest" -> handle_suggest t req
    | "/complete" -> handle_complete t req
    | p -> Http.json_response ~status:404 (Api.error_payload ("no such endpoint " ^ p)))

(* ---- per-connection worker ---------------------------------------------- *)

let log_request t req status ms =
  if t.config.log then
    Mutex.protect t.log_lock (fun () ->
        Printf.eprintf "xr_server: %s %s -> %d (%.1f ms)\n%!"
          (Http.meth_to_string req.Http.meth)
          req.Http.target status ms)

let error_response err =
  let open Http in
  match err with
  | Bad_request msg -> Some (json_response ~status:400 (Api.error_payload msg))
  | Too_large msg -> Some (json_response ~status:413 (Api.error_payload msg))
  | Timeout -> Some (json_response ~status:408 (Api.error_payload "request timed out"))
  | Eof -> None

let internal_error = Http.json_response ~status:500 (Api.error_payload "internal error")

(* One structured line per offending request, with its span breakdown
   inlined so the evidence survives ring-buffer eviction. *)
let log_slow_query t req status trace_id ms corpora =
  let threshold = t.config.slow_query_ms in
  if threshold > 0. && ms >= threshold then begin
    let spans = if trace_id = 0 then [] else Xr_obs.Tracing.spans_of_trace trace_id in
    let line =
      Xr_obs.Slowlog.render ~endpoint:req.Http.path ~status ~ms ~trace_id ~corpora spans
    in
    Mutex.protect t.log_lock (fun () -> Printf.eprintf "%s\n%!" line)
  end

let handle_conn t conn =
  let close () = try Unix.close conn.fd with Unix.Unix_error _ -> () in
  let budget_s = t.config.deadline_ms /. 1000. in
  let waited = Unix.gettimeofday () -. conn.accepted_at in
  if waited > budget_s then begin
    (* The connection blew its deadline sitting in the queue: shed it. *)
    Metrics.record_deadline t.server_metrics;
    (try
       Http.write_all conn.fd
         (Http.serialize ~keep_alive:false
            (Http.json_response ~status:503
               (Api.error_payload "deadline exceeded while queued")))
     with Unix.Unix_error _ -> ());
    close ()
  end
  else begin
    (* Bound reads and writes by the remaining budget (refreshed per
       request below; engine work itself is not interruptible). *)
    (try
       Unix.setsockopt_float conn.fd Unix.SO_RCVTIMEO budget_s;
       Unix.setsockopt_float conn.fd Unix.SO_SNDTIMEO budget_s
     with Unix.Unix_error _ -> () (* e.g. not supported on this socket *));
    let reader = Http.reader_of_fd conn.fd in
    let rec serve served =
      if served >= t.config.keepalive_requests then close ()
      else
        match Http.read_request ~limits:t.config.limits reader with
        | Error err -> (
          (match error_response err with
          | Some resp -> (
            try Http.write_all conn.fd (Http.serialize ~keep_alive:false resp)
            with Unix.Unix_error _ -> ())
          | None -> ());
          close ())
        | Ok req -> (
          let t0 = Unix.gettimeofday () in
          let (resp, corpora), trace_id =
            Xr_obs.Tracing.with_trace "request" (fun () ->
                if t.config.slow_query_ms > 0. then
                  Served.with_sink (fun () -> try handle t req with _ -> internal_error)
                else ((try handle t req with _ -> internal_error), []))
          in
          let ms = (Unix.gettimeofday () -. t0) *. 1000. in
          let ka = Http.keep_alive req && served + 1 < t.config.keepalive_requests in
          Metrics.record t.server_metrics ~endpoint:req.Http.path ~status:resp.Http.status
            ~ms ~trace_id ();
          log_request t req resp.Http.status ms;
          log_slow_query t req resp.Http.status trace_id ms corpora;
          match Http.write_all conn.fd (Http.serialize ~keep_alive:ka resp) with
          | () -> if ka then serve (served + 1) else close ()
          | exception Unix.Unix_error _ -> close ())
    in
    serve 0
  end

(* ---- lifecycle ----------------------------------------------------------- *)

let build_trie (index : Index.t) =
  let d = index.Index.doc in
  Xr_text.Trie.of_vocabulary
    (List.map
       (fun w ->
         ( w,
           match Xr_xml.Doc.keyword_id d w with
           | Some kw -> Xr_index.Inverted.length index.Index.inverted kw
           | None -> 0 ))
       (Xr_xml.Doc.vocabulary d))

let bind_socket addr =
  match addr with
  | Tcp (host, port) ->
    let inet =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
        | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
        | _ -> failwith ("cannot resolve host " ^ host))
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (inet, port));
    Unix.listen fd 128;
    fd
  | Unix_socket path ->
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 128;
    fd

(* Scrape-time gauges and pulled counters for state owned elsewhere:
   queue depth, worker count, cache statistics, uptime, and the index
   footprint. The footprint is pulled live from the current generations
   (summed over corpora) — ingest swaps them at any time. Families are
   idempotent and [set_pull] rebinds, so restarting a server in the same
   process re-points the series at the live instance. *)
let register_observability t =
  let module Reg = Xr_obs.Registry in
  Xr_obs.Runtime.register ();
  let gauge name help = Reg.Gauge.no_labels (Reg.Gauge.family ~name ~help ()) in
  let pull_gauge name help f = Reg.Gauge.set_pull (gauge name help) f in
  let pull_counter name help f =
    Reg.Counter.set_pull (Reg.Counter.no_labels (Reg.Counter.family ~name ~help ())) f
  in
  let sum_indices f =
    let acc = ref 0 in
    iter_corpora t (fun _ cs ->
        acc := !acc + f (Generation.current cs.gens).Generation.index);
    float_of_int !acc
  in
  pull_gauge "xr_uptime_seconds" "Seconds since server start" (fun () ->
      Unix.gettimeofday () -. Metrics.started_at t.server_metrics);
  pull_gauge "xr_queue_depth" "Connections waiting in the admission queue" (fun () ->
      float_of_int (Pool.depth t.pool));
  pull_gauge "xr_worker_domains" "Request worker domains" (fun () ->
      float_of_int (Pool.domains t.pool));
  pull_counter "xr_cache_hits_total" "Result cache hits" (fun () ->
      float_of_int (combined_cache_stats t).Lru.hits);
  pull_counter "xr_cache_misses_total" "Result cache misses" (fun () ->
      float_of_int (combined_cache_stats t).Lru.misses);
  pull_counter "xr_cache_evictions_total" "Result cache evictions" (fun () ->
      float_of_int (combined_cache_stats t).Lru.evictions);
  pull_gauge "xr_cache_entries" "Result cache resident entries" (fun () ->
      float_of_int (combined_cache_stats t).Lru.entries);
  pull_gauge "xr_cache_capacity" "Result cache capacity" (fun () ->
      float_of_int (combined_cache_stats t).Lru.capacity);
  pull_gauge "xr_plan_cache_entries" "Compiled query plans resident across corpora"
    (fun () -> float_of_int (plan_entries t));
  pull_gauge "xr_index_postings" "Postings across all inverted lists" (fun () ->
      sum_indices (fun ix -> Xr_index.Inverted.postings_total ix.Index.inverted));
  pull_gauge "xr_index_packed_bytes" "Resident bytes of posting data" (fun () ->
      sum_indices (fun ix -> Xr_index.Inverted.resident_bytes ix.Index.inverted));
  pull_gauge "xr_index_label_bytes" "Resident bytes of varint Dewey labels" (fun () ->
      sum_indices (fun ix -> Xr_index.Inverted.label_bytes_total ix.Index.inverted));
  pull_gauge "xr_index_keywords" "Distinct keywords in the vocabulary" (fun () ->
      sum_indices (fun ix -> List.length (Xr_xml.Doc.vocabulary ix.Index.doc)));
  pull_gauge "xr_index_nodes" "Element nodes in the document" (fun () ->
      sum_indices (fun ix -> Xr_xml.Doc.node_count ix.Index.doc));
  pull_gauge "xr_serving_shards" "Serving shards" (fun () ->
      float_of_int (Array.length t.shards));
  pull_gauge "xr_serving_corpora" "Corpora served" (fun () ->
      float_of_int (List.length (corpora_names t)))

let start_corpora config specs =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  if config.trace then Xr_obs.Tracing.enable ();
  if specs = [] then invalid_arg "Server.start_corpora: no corpora";
  let listen_fd = bind_socket config.addr in
  let stop_r, stop_w = Unix.pipe () in
  let tref = ref None in
  let pool =
    Pool.create ~domains:config.domains ~queue_bound:config.queue_bound (fun conn ->
        match !tref with
        | Some t -> handle_conn t conn
        | None -> ( try Unix.close conn.fd with Unix.Unix_error _ -> ()))
  in
  let ncorpora = List.length specs in
  let nshards =
    let requested = if config.shards <= 0 then ncorpora else config.shards in
    max 1 (min requested ncorpora)
  in
  let caches =
    Array.init nshards (fun _ ->
        Lru.create ~shards:config.cache_shards ~capacity:config.cache_capacity ())
  in
  let ingest_config =
    { Ingest.queue_bound = config.ingest_queue; batch_max = config.ingest_batch }
  in
  (* Corpora round-robin across shards; each corpus gets its own
     generation chain and writer. On publish the writer swaps the trie
     and clears its shard's cache (generation-tagged keys make late
     inserts from still-pinned readers unreachable either way). *)
  let corpus_states =
    List.mapi
      (fun i spec ->
        let shard_id = i mod nshards in
        let gens = Generation.create ~corpus:spec.name spec.index in
        let ctrie = Atomic.make (build_trie spec.index) in
        let on_publish (gen : Generation.gen) =
          Atomic.set ctrie (build_trie gen.Generation.index);
          Lru.clear caches.(shard_id)
        in
        let ingest =
          Ingest.create ~config:ingest_config ?kv:spec.kv ~on_publish gens
        in
        let plans =
          if config.batch && config.plan_cache_capacity > 0 then
            Some (Xr_batch.Plan_cache.create ~capacity:config.plan_cache_capacity ())
          else None
        in
        { cname = spec.name; shard_id; gens; ingest; ctrie; plans })
      specs
  in
  let shards =
    Array.init nshards (fun sid ->
        {
          sid;
          corpora =
            Array.of_list (List.filter (fun cs -> cs.shard_id = sid) corpus_states);
          cache = caches.(sid);
          flights =
            (if config.batch then
               Some (Xr_batch.Coalesce.create ~window_ms:config.coalesce_window_ms ())
             else None);
        })
  in
  let t =
    {
      config;
      shards;
      single = ncorpora = 1;
      server_metrics = Metrics.create ();
      listen_fd;
      stop_r;
      stop_w;
      pool;
      log_lock = Mutex.create ();
    }
  in
  tref := Some t;
  register_observability t;
  t

let start config index = start_corpora config [ { name = "default"; index; kv = None } ]

let bound_addr t = Unix.getsockname t.listen_fd

let overloaded =
  Http.json_response ~status:503
    ~headers:[ ("retry-after", "1") ]
    (Api.error_payload "server overloaded, request shed")

let run t =
  Unix.set_nonblock t.listen_fd;
  let rec loop () =
    match Unix.select [ t.listen_fd; t.stop_r ] [] [] (-1.) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | readable, _, _ ->
      if List.mem t.stop_r readable then () (* stop requested *)
      else begin
        (match Unix.accept ~cloexec:true t.listen_fd with
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
        | fd, _peer ->
          (try Unix.clear_nonblock fd with Unix.Unix_error _ -> ());
          let conn = { fd; accepted_at = Unix.gettimeofday () } in
          if not (Pool.submit t.pool conn) then begin
            Metrics.record_shed t.server_metrics;
            (try Http.write_all fd (Http.serialize ~keep_alive:false overloaded)
             with Unix.Unix_error _ -> ());
            try Unix.close fd with Unix.Unix_error _ -> ()
          end);
        loop ()
      end
  in
  loop ();
  Pool.shutdown t.pool;
  iter_corpora t (fun _ cs -> Ingest.shutdown cs.ingest);
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ t.listen_fd; t.stop_r; t.stop_w ];
  match t.config.addr with
  | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()

let stop t =
  try ignore (Unix.write_substring t.stop_w "x" 0 1) with Unix.Unix_error _ -> ()
