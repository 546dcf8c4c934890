open Xr_xml
module Index = Xr_index.Index
module Engine = Xr_refine.Engine
module Result = Xr_refine.Result

let take limit l =
  let rec go n = function x :: rest when n > 0 -> x :: go (n - 1) rest | _ -> [] in
  if limit < 0 then l else go limit l

let result_item (index : Index.t) ~query_ids ?score dewey =
  let doc = index.Index.doc in
  let base =
    [
      ("dewey", Json.String (Dewey.to_string dewey));
      ("label", Json.String (Doc.label doc dewey));
      ("snippet", Json.String (Xr_slca.Snippet.of_result doc ~query:query_ids dewey));
    ]
  in
  match score with
  | Some s -> Json.Obj (base @ [ ("score", Json.Float s) ])
  | None -> Json.Obj base

let query_ids (index : Index.t) keywords =
  List.filter_map (Doc.keyword_id index.Index.doc) keywords

let keywords_json keywords = Json.List (List.map (fun k -> Json.String k) keywords)

let search_payload index ~query ~ranked ?(limit = -1) entries =
  let ids = query_ids index query in
  let items =
    List.map
      (fun (d, s) ->
        if ranked then result_item index ~query_ids:ids ~score:s d
        else result_item index ~query_ids:ids d)
      (take limit entries)
  in
  Json.Obj
    [
      ("query", keywords_json query);
      ("count", Json.Int (List.length entries));
      ("ranked", Json.Bool ranked);
      ("results", Json.List items);
    ]

let scored_json (s : Xr_refine.Ranking.scored) =
  Json.Obj
    [
      ("similarity", Json.Float s.Xr_refine.Ranking.similarity);
      ("dependence", Json.Float s.Xr_refine.Ranking.dependence);
      ("rank", Json.Float s.Xr_refine.Ranking.rank);
    ]

let rq_match_json index ~limit (m : Result.rq_match) =
  let rq = m.Result.rq in
  let ids = query_ids index rq.Xr_refine.Refined_query.keywords in
  Json.Obj
    [
      ("keywords", keywords_json rq.Xr_refine.Refined_query.keywords);
      ( "operations",
        Json.List
          (List.map (fun o -> Json.String o) (Xr_refine.Refined_query.operations rq)) );
      ("dissimilarity", Json.Int rq.Xr_refine.Refined_query.dissimilarity);
      ("score", match m.Result.score with Some s -> scored_json s | None -> Json.Null);
      ("count", Json.Int (List.length m.Result.slcas));
      ( "results",
        Json.List
          (List.map (fun d -> result_item index ~query_ids:ids d) (take limit m.Result.slcas))
      );
    ]

let refine_payload index ~query ?(limit = -1) (resp : Engine.response) =
  let ids = query_ids index query in
  let outcome, fields =
    match resp.Engine.result with
    | Result.Original slcas ->
      ( "matched",
        [
          ("count", Json.Int (List.length slcas));
          ( "results",
            Json.List
              (List.map (fun d -> result_item index ~query_ids:ids d) (take limit slcas)) );
        ] )
    | Result.Refined matches ->
      ( "refined",
        [ ("refinements", Json.List (List.map (rq_match_json index ~limit) matches)) ] )
    | Result.No_result -> ("no_result", [])
  in
  Json.Obj
    ([ ("query", keywords_json query); ("outcome", Json.String outcome) ]
    @ fields
    @ [
        ( "rules_used",
          Json.List
            (List.map (fun r -> Json.String (Xr_refine.Rule.to_string r)) resp.Engine.rules_used)
        );
      ])

let suggest_payload index ~query ?(limit = -1) suggestions =
  let item (s : Xr_refine.Specialize.suggestion) =
    let ids = query_ids index s.Xr_refine.Specialize.keywords in
    Json.Obj
      [
        ("keywords", keywords_json s.Xr_refine.Specialize.keywords);
        ("added", Json.String s.Xr_refine.Specialize.added);
        ("score", Json.Float s.Xr_refine.Specialize.score);
        ("count", Json.Int (List.length s.Xr_refine.Specialize.slcas));
        ( "results",
          Json.List
            (List.map
               (fun d -> result_item index ~query_ids:ids d)
               (take limit s.Xr_refine.Specialize.slcas)) );
      ]
  in
  Json.Obj
    [ ("query", keywords_json query); ("suggestions", Json.List (List.map item suggestions)) ]

let complete_payload ~prefix completions =
  Json.Obj
    [
      ("prefix", Json.String prefix);
      ( "completions",
        Json.List
          (List.map
             (fun (w, n) ->
               Json.Obj [ ("keyword", Json.String w); ("occurrences", Json.Int n) ])
             completions) );
    ]

(* Everything here must stay passive: a /stats hit on a DAG-backed index
   must not force per-keyword merges, so totals come from the
   non-forcing accessors and per-list bytes are reported only for lists
   already resident ([peek_merged]). *)
let index_footprint (index : Index.t) =
  let d = index.Index.doc in
  let inv = index.Index.inverted in
  let postings = Xr_index.Inverted.postings_total inv in
  let total_bytes = Xr_index.Inverted.resident_bytes inv in
  let lists = ref [] in
  Xr_index.Inverted.iter_lengths
    (fun kw n ->
      if n > 0 then begin
        let bytes =
          match Xr_index.Inverted.peek_merged inv kw with
          | Some pk -> Xr_index.Inverted.packed_bytes pk
          | None -> 0
        in
        lists := (Doc.keyword_name d kw, n, bytes) :: !lists
      end)
    inv;
  let largest =
    let sorted =
      List.sort (fun (_, a, _) (_, b, _) -> Int.compare b a) (List.rev !lists)
    in
    let rec take n = function
      | x :: rest when n > 0 -> x :: take (n - 1) rest
      | _ -> []
    in
    take 10 sorted
  in
  let dag_block =
    match Xr_index.Inverted.dag inv with
    | None -> []
    | Some dag ->
      let s = Xr_dag.stats dag in
      [
        ( "dag",
          Json.Obj
            [
              ("nodes", Json.Int s.Xr_dag.nodes);
              ("classes", Json.Int s.Xr_dag.classes);
              ("occurrence_classes", Json.Int s.Xr_dag.occurrence_classes);
              ("instances", Json.Int s.Xr_dag.instances);
              ("tree_edges", Json.Int s.Xr_dag.tree_edges);
              ("dag_edges", Json.Int s.Xr_dag.dag_edges);
              ("node_dedup_ratio", Json.Float (Xr_dag.node_dedup_ratio dag));
              ("edge_dedup_ratio", Json.Float (Xr_dag.edge_dedup_ratio dag));
              ("dag_bytes", Json.Int (Xr_dag.bytes dag));
              ( "bytes_per_node",
                Json.Float
                  (if s.Xr_dag.nodes = 0 then 0.
                   else float_of_int (Xr_dag.bytes dag) /. float_of_int s.Xr_dag.nodes) );
              ("merges", Json.Int (Xr_index.Inverted.merge_count inv));
              ("merged_keywords", Json.Int (Xr_index.Inverted.merged_keywords inv));
            ] );
      ]
  in
  Json.Obj
    ([
       ("repr", Json.String (Index.mode_name (Index.mode index)));
       ("postings", Json.Int postings);
       ("label_bytes", Json.Int (Xr_index.Inverted.label_bytes_total inv));
       ("packed_bytes", Json.Int total_bytes);
       ( "bytes_per_posting",
         Json.Float
           (if postings = 0 then 0. else float_of_int total_bytes /. float_of_int postings) );
       ( "largest_lists",
         Json.List
           (List.map
              (fun (kw, n, bytes) ->
                Json.Obj
                  [
                    ("keyword", Json.String kw);
                    ("postings", Json.Int n);
                    ("bytes", Json.Int bytes);
                  ])
              largest) );
     ]
    @ dag_block)

(* The shared domain pool's counters: fan-out activity (tasks, steals,
   batches), sequential fallbacks, and the live threshold. The pool is
   created lazily, so a server that never crossed the threshold reports
   [created = false] with zero counters. *)
let pool_payload () =
  let base =
    match Xr_pool.peek_global () with
    | None -> [ ("created", Json.Bool false); ("domains", Json.Int 0) ]
    | Some p ->
      let c = Xr_pool.counters p in
      [
        ("created", Json.Bool true);
        ("domains", Json.Int c.Xr_pool.domains);
        ("tasks", Json.Int c.Xr_pool.tasks);
        ("steals", Json.Int c.Xr_pool.steals);
        ("batches", Json.Int c.Xr_pool.batches);
        ("queue_depth", Json.Int (Xr_pool.queue_depth p));
      ]
  in
  Json.Obj
    (base
    @ [
        ("fallbacks", Json.Int (Xr_slca.Parallel.fallbacks ()));
        ("parallel_threshold", Json.Int (Xr_slca.Parallel.threshold ()));
      ])

(* Batched-execution counters: tiny-kernel dispatch, plan-cache
   effectiveness and single-flight coalescing — the numbers behind the
   batch path's claimed wins, in one /stats block. *)
let batch_payload ~enabled ~plan_entries () =
  Json.Obj
    [
      ("enabled", Json.Bool enabled);
      ("tiny_scans", Json.Int (Xr_slca.Scan_packed.tiny_scans ()));
      ("plan_cache_entries", Json.Int plan_entries);
      ("plan_cache_hits", Json.Int (Xr_batch.Plan_cache.hits ()));
      ("plan_cache_misses", Json.Int (Xr_batch.Plan_cache.misses ()));
      ("plan_cache_evictions", Json.Int (Xr_batch.Plan_cache.evictions ()));
      ("coalesce_leaders", Json.Int (Xr_batch.Coalesce.leaders ()));
      ("coalesce_followers", Json.Int (Xr_batch.Coalesce.followers ()));
      ("coalesce_helped_tasks", Json.Int (Xr_batch.Coalesce.helped ()));
    ]

let stats_payload ?pool ?batch (index : Index.t) =
  let d = index.Index.doc in
  let paths = ref [] in
  Path.iter
    (fun p ->
      paths :=
        Json.Obj
          [
            ("path", Json.String (Doc.path_string d p));
            ("nodes", Json.Int (Xr_index.Stats.node_count index.Index.stats p));
            ("distinct_keywords", Json.Int (Xr_index.Stats.distinct_keywords index.Index.stats p));
          ]
        :: !paths)
    d.Doc.paths;
  Json.Obj
    ([
      ("nodes", Json.Int (Doc.node_count d));
      ("keywords", Json.Int (List.length (Doc.vocabulary d)));
      ("node_types", Json.Int (Path.size d.Doc.paths));
      ("depth", Json.Int (Tree.depth d.Doc.tree));
      ("index", index_footprint index);
      ("paths", Json.List (List.rev !paths));
    ]
    @ (match pool with Some p -> [ ("pool", p) ] | None -> [])
    @ (match batch with Some b -> [ ("batch", b) ] | None -> []))

(* Recent traces as nested span trees: per trace the root's total and,
   per span, duration, start offset from the trace root, and the domain
   it completed on. *)
let trace_payload traces =
  let module Tr = Xr_obs.Tracing in
  let rec node root_start (t : Tr.tree) =
    let sp = t.Tr.span in
    Json.Obj
      [
        ("name", Json.String sp.Tr.name);
        ("ms", Json.Float (Int64.to_float sp.Tr.dur_ns /. 1e6));
        ( "start_us",
          Json.Float (Int64.to_float (Int64.sub sp.Tr.start_ns root_start) /. 1e3) );
        ("domain", Json.Int sp.Tr.domain);
        ("children", Json.List (List.map (node root_start) t.Tr.children));
      ]
  in
  let one (tid, spans) =
    let root = List.find_opt (fun (s : Tr.span) -> s.Tr.parent_id = 0) spans in
    let root_start = match root with Some s -> s.Tr.start_ns | None -> 0L in
    let total_ms =
      match root with Some s -> Int64.to_float s.Tr.dur_ns /. 1e6 | None -> 0.
    in
    Json.Obj
      [
        ("trace", Json.Int tid);
        ("total_ms", Json.Float total_ms);
        ("spans", Json.List (List.map (node root_start) (Tr.tree_of_spans spans)));
      ]
  in
  Json.Obj
    [
      ("count", Json.Int (List.length traces));
      ("traces", Json.List (List.map one traces));
    ]

(* ---- EXPLAIN / ANALYZE ------------------------------------------------- *)

let explain_payload (x : Xr_batch.Plan.explain_search) =
  let module P = Xr_batch.Plan in
  let keyword k =
    Json.Obj
      [
        ("keyword", Json.String k.P.ek_keyword);
        ("id", Json.Int k.P.ek_id);
        ("postings", Json.Int k.P.ek_postings);
      ]
  in
  let parallel (p : P.explain_parallel) =
    Json.Obj
      [
        ("estimate", Json.Float p.P.xp_estimate);
        ("threshold", Json.Int p.P.xp_threshold);
        ( "measured",
          match p.P.xp_measured with Some c -> Json.Float c | None -> Json.Null );
        ("grains", match p.P.xp_grains with Some g -> Json.Int g | None -> Json.Null);
        ("pool_size", Json.Int p.P.xp_pool_size);
        ("chunks_targeted", Json.Int p.P.xp_chunks);
        ( "chunk_bounds",
          Json.List (Array.to_list (Array.map (fun b -> Json.Int b) p.P.xp_chunk_bounds)) );
        ( "cost_curve",
          Json.List
            (Array.to_list
               (Array.map
                  (fun (b, c) -> Json.List [ Json.Int b; Json.Float c ])
                  p.P.xp_curve)) );
      ]
  in
  Json.Obj
    ([
       ("kernel", Json.String x.P.x_kernel);
       ("reason", Json.String x.P.x_reason);
       ("algorithm", Json.String x.P.x_algorithm);
       ("index_mode", Json.String x.P.x_index_mode);
     ]
    @ [ ("keywords", Json.List (List.map keyword x.P.x_keywords)) ]
    @ (match x.P.x_missing with
      | [] -> []
      | ks -> [ ("missing", Json.List (List.map (fun k -> Json.String k) ks)) ])
    @ match x.P.x_parallel with Some p -> [ ("parallel", parallel p) ] | None -> [])

let explain_refine_payload (x : Xr_batch.Plan.explain_refine) =
  let module P = Xr_batch.Plan in
  match explain_payload x.P.xr_search with
  | Json.Obj fields ->
    Json.Obj
      (fields
      @ [ ("rules", Json.List (List.map (fun r -> Json.String r) x.P.xr_rules)) ])
  | j -> j

let gc_delta_json (d : Xr_obs.Runtime.gc_delta) =
  Json.Obj
    [
      ("minor_words", Json.Float d.Xr_obs.Runtime.d_minor_words);
      ("promoted_words", Json.Float d.Xr_obs.Runtime.d_promoted_words);
      ("major_words", Json.Float d.Xr_obs.Runtime.d_major_words);
      ("allocated_words", Json.Float (Xr_obs.Runtime.allocated_words d));
      ("minor_collections", Json.Int d.Xr_obs.Runtime.d_minor_collections);
      ("major_collections", Json.Int d.Xr_obs.Runtime.d_major_collections);
    ]

(* Execution actuals for one ANALYZE render: stage in/out counts and
   chunk drift from the collection channel, the handler-side GC delta,
   the pool tasks' summed GC delta, and the completed child spans of
   the surrounding trace (the root is still open while we render). *)
let analyze_payload ~ms ~gc ~spans report =
  let module A = Xr_obs.Analyze in
  let module Tr = Xr_obs.Tracing in
  let stage (s : A.stage) =
    Json.Obj
      [
        ("stage", Json.String s.A.sg_name);
        ("in", Json.Int s.A.sg_in);
        ("out", Json.Int s.A.sg_out);
      ]
  in
  let chunk (c : A.chunk) =
    Json.Obj
      [
        ("chunk", Json.Int c.A.ck_index);
        ("modeled_share", Json.Float c.A.ck_modeled);
        ("measured_share", Json.Float c.A.ck_measured);
        ("drift_ratio", Json.Float (c.A.ck_measured /. c.A.ck_modeled));
        ("ms", Json.Float (c.A.ck_ns /. 1e6));
      ]
  in
  let span (sp : Tr.span) =
    Json.Obj
      [
        ("name", Json.String sp.Tr.name);
        ("ms", Json.Float (Int64.to_float sp.Tr.dur_ns /. 1e6));
        ("domain", Json.Int sp.Tr.domain);
      ]
  in
  Json.Obj
    [
      ("ms", Json.Float ms);
      ("stages", Json.List (List.map stage (A.stages report)));
      ("chunks", Json.List (List.map chunk (A.chunks report)));
      ("gc", gc_delta_json gc);
      ("pool_tasks", Json.Int (A.tasks report));
      ("pool_tasks_gc", gc_delta_json (A.task_gc report));
      ("spans", Json.List (List.map span spans));
    ]

let error_payload msg = Json.Obj [ ("error", Json.String msg) ]
