(* The traced replay: a prefix of a workload's list, run on one thread
   against two independent copies of the index.

   Side A is the request path rebuilt from the program's public
   functions — HTTP parse, result cache, compiled plans, SLCA, ranking,
   rendering, serialization and the ingest calls — with a span around
   each call. Side B is [Server.handle] on an in-process server over the
   other copy, bracketed by the same HTTP parse and serialization so
   both sides do a worker's whole per-request job. The two sides
   alternate which goes first, and their bodies must be byte-identical:
   a mismatch means side A no longer mirrors the server and its spans
   describe some other program. *)

module Http = Xr_server.Http
module Json = Xr_server.Json
module Api = Xr_server.Api
module Lru = Xr_server.Lru
module Server = Xr_server.Server
module Plan = Xr_batch.Plan
module Plan_cache = Xr_batch.Plan_cache
module Engine = Xr_refine.Engine
module Generation = Xr_ingest.Generation
module Index = Xr_index.Index
open Xr_e2e

(* Every span the replay can open, interned in report order. *)
let reported = ref []

let sp name =
  reported := name :: !reported;
  Span.name name

let s_request = sp "request"
let s_read_request = sp "http.read_request"
let s_lru_find = sp "lru.find"
let s_lru_add = sp "lru.add"
let s_compile_search = sp "plan.compile_search"
let s_compile_refine = sp "plan.compile_refine"
let s_run_search = sp "plan.run_search"
let s_run_refine = sp "plan.run_refine"
let s_rank = sp "result_rank.rank"
let s_search_payload = sp "api.search_payload"
let s_refine_payload = sp "api.refine_payload"
let s_to_string = sp "json.to_string"
let s_serialize = sp "http.serialize"
let s_parse_string = sp "parser.parse_string"
let s_fork = sp "index.fork"
let s_append = sp "index.append_partition_delta"
let s_publish = sp "generation.publish"
let s_build_trie = sp "trie.of_vocabulary"
let s_handle = sp "server.handle"
let span_names = List.rev !reported

(* The server's defaults for a request that names none. *)
let result_limit = Server.default_config.Server.result_limit

let slca_name = "scan-parallel"

let refine_alg = "partition"

let refine_k = 3

(* Side A's state: the same caches the server keeps per corpus, sized
   as it sizes them. *)
type a = {
  spans : Span.t;
  gens : Generation.t;
  lru : Lru.t;
  plans : Plan_cache.t;
}

let side_a spans index ~corpus =
  let c = Server.default_config in
  {
    spans;
    gens = Generation.create ~corpus index;
    lru = Lru.create ~shards:c.Server.cache_shards ~capacity:c.Server.cache_capacity ();
    plans = Plan_cache.create ~capacity:c.Server.plan_cache_capacity ();
  }

let span a id f = Span.with_span a.spans id f

let query_of req =
  Xr_xml.Token.tokenize (Option.value ~default:"" (Http.query_param req "q"))

let cached a key render =
  match span a s_lru_find (fun () -> Lru.find a.lru key) with
  | Some body -> (body, true)
  | None ->
    let body = render () in
    span a s_lru_add (fun () -> Lru.add a.lru key body);
    (body, false)

let json_body a payload = span a s_to_string (fun () -> Json.to_string payload) ^ "\n"

let search a req =
  let query = query_of req in
  let rank = Http.query_param req "rank" = Some "true" in
  let gen = Generation.current a.gens in
  let q = String.concat " " query in
  let key =
    Printf.sprintf "g%d|search|%s|%b|%d|%s" gen.Generation.id slca_name rank result_limit q
  in
  cached a key (fun () ->
      let index = gen.Generation.index in
      let config =
        {
          Engine.default_config with
          Engine.slca = Option.get (Xr_slca.Engine.of_name slca_name);
        }
      in
      let plan =
        match
          Plan_cache.find_or_compile a.plans
            ~key:(Printf.sprintf "s|%d|%s" gen.Generation.id q)
            (fun () ->
              Plan_cache.Search
                (span a s_compile_search (fun () -> Plan.compile_search ~config index query)))
        with
        | Plan_cache.Search p -> p
        | Plan_cache.Refine _ -> invalid_arg "search plan key holds a refine plan"
      in
      let slcas = span a s_run_search (fun () -> Plan.run_search ~config plan index) in
      let entries =
        if rank then
          span a s_rank (fun () ->
              let ids = List.filter_map (Xr_xml.Doc.keyword_id index.Index.doc) query in
              Xr_slca.Result_rank.rank index.Index.stats ~query:ids slcas)
        else List.map (fun d -> (d, 0.)) slcas
      in
      json_body a
        (span a s_search_payload (fun () ->
             Api.search_payload index ~query ~ranked:rank ~limit:result_limit entries)))

let refine a req =
  let query = query_of req in
  let gen = Generation.current a.gens in
  let q = String.concat " " query in
  let key =
    Printf.sprintf "g%d|refine|%s|%d|%d|%s" gen.Generation.id refine_alg refine_k
      result_limit q
  in
  cached a key (fun () ->
      let index = gen.Generation.index in
      let config =
        {
          Engine.default_config with
          Engine.k = refine_k;
          algorithm = Option.get (Engine.algorithm_of_name refine_alg);
        }
      in
      let plan =
        match
          Plan_cache.find_or_compile a.plans
            ~key:(Printf.sprintf "r|%d|%s" gen.Generation.id q)
            (fun () ->
              Plan_cache.Refine
                (span a s_compile_refine (fun () -> Plan.compile_refine ~config index query)))
        with
        | Plan_cache.Refine p -> p
        | Plan_cache.Search _ -> invalid_arg "refine plan key holds a search plan"
      in
      let resp = span a s_run_refine (fun () -> Plan.run_refine ~config plan index query) in
      json_body a
        (span a s_refine_payload (fun () ->
             Api.refine_payload index ~query ~limit:result_limit resp)))

(* The completion trie the server rebuilds on every publish, built as
   it builds it: every keyword weighted by its posting count. *)
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

(* What the corpus writer does for one synced document: parse, fork the
   current generation, append, publish, then rebuild the completion
   trie and retire the cache. *)
let ingest a ~corpus req =
  let tree = span a s_parse_string (fun () -> Xr_xml.Parser.parse_string req.Http.body) in
  let base = (Generation.current a.gens).Generation.index in
  let forked = span a s_fork (fun () -> Index.fork base) in
  let next, _ =
    span a s_append (fun () -> Index.append_partition_delta forked tree)
  in
  let gen = span a s_publish (fun () -> Generation.publish a.gens next) in
  ignore (span a s_build_trie (fun () -> build_trie gen.Generation.index));
  Lru.clear a.lru;
  json_body a
    (Json.Obj
       [
         ("accepted", Json.Bool true);
         ("corpus", Json.String corpus);
         ("shard", Json.Int 0);
         ("generation", Json.Int gen.Generation.id);
         ("queue_depth", Json.Int 0);
         ("synced", Json.Bool true);
       ])

let cache_headers hit =
  [ ("content-type", "application/json"); ("x-cache", if hit then "hit" else "miss") ]

let handle_a a ~corpus req =
  match req.Http.path with
  | "/search" ->
    let body, hit = search a req in
    Http.response ~status:200 ~headers:(cache_headers hit) body
  | "/refine" ->
    let body, hit = refine a req in
    Http.response ~status:200 ~headers:(cache_headers hit) body
  | "/ingest" ->
    Http.response ~status:200
      ~headers:[ ("content-type", "application/json") ]
      (ingest a ~corpus req)
  | p -> invalid_arg ("the replay does not mirror " ^ p)

let parse wire =
  match Http.read_request (Http.reader_of_string wire) with
  | Ok req -> req
  | Error e -> failwith ("replay request does not parse: " ^ Http.error_to_string e)

let run_a a ~corpus ~req wire =
  Span.root a.spans ~req s_request (fun () ->
      let r = span a s_read_request (fun () -> parse wire) in
      let resp = handle_a a ~corpus r in
      ignore (span a s_serialize (fun () -> Http.serialize ~keep_alive:true resp));
      resp)

let run_b spans b ~req wire =
  Span.root spans ~req s_handle (fun () ->
      let resp = Server.handle b (parse wire) in
      ignore (Http.serialize ~keep_alive:true resp);
      resp)

type result = {
  replayed : int;
  mismatches : int;
  spans : Span.t;
}

(* [run ~index_a ~server_b ~corpus wl] replays [wl]'s prefix. Hot
   workloads first send every distinct read to both sides, untraced, as
   the HTTP run pre-warms its server. *)
let run ~index_a ~server_b ~corpus (wl : Workload.t) =
  let spans = Span.create () in
  let a = side_a spans index_a ~corpus in
  let wires = Array.map Workload.wire wl.Workload.distinct in
  if wl.Workload.warm then begin
    Array.iteri
      (fun i (r : Workload.request) ->
        if r.Workload.kind <> Workload.Ingest then begin
          ignore (run_a a ~corpus ~req:i wires.(i));
          ignore (Server.handle server_b (parse wires.(i)))
        end)
      wl.Workload.distinct;
    Span.clear spans
  end;
  let mismatches = ref 0 in
  (* Each side starts with the collector's debt paid, so neither pays
     for the garbage the other side just left. *)
  let settled f =
    ignore (Gc.major_slice 0);
    f ()
  in
  for i = 0 to wl.Workload.replay - 1 do
    let wire = wires.(wl.Workload.order.(i)) in
    let do_a () = settled (fun () -> run_a a ~corpus ~req:i wire) in
    let do_b () = settled (fun () -> run_b spans server_b ~req:i wire) in
    let ra, rb =
      if i land 1 = 0 then
        let ra = do_a () in
        (ra, do_b ())
      else
        let rb = do_b () in
        (do_a (), rb)
    in
    let same =
      ra.Http.status = rb.Http.status && String.equal ra.Http.resp_body rb.Http.resp_body
    in
    if not same then incr mismatches
  done;
  { replayed = wl.Workload.replay; mismatches = !mismatches; spans }

(* Per span: [<span>.self_us_per_req] and [<span>.calls_per_req], then
   [trace.coverage], the traced request path's time over the server's,
   and [trace.dropped_pairs], the requests it leaves out. *)
let metrics r =
  let calls, self_ns = Span.totals r.spans in
  let per_req x = float_of_int x /. float_of_int (max 1 r.replayed) in
  let id = Span.name in
  let per_span =
    List.concat_map
      (fun s ->
        let i = id s in
        [
          (s ^ ".self_us_per_req", per_req self_ns.(i) /. 1e3, "us");
          (s ^ ".calls_per_req", per_req calls.(i), "count");
        ])
      span_names
  in
  let a = Span.root_durations r.spans s_request ~n:r.replayed in
  let b = Span.root_durations r.spans s_handle ~n:r.replayed in
  (* Coverage compares the sides request by request. Both do the same
     work, so a pair where one side took over twice as long as the other
     met a stall (a preempted core, a collection) rather than the
     request, and is left out of both sums: a few such milliseconds
     outweigh thousands of microsecond requests. A step side A lacks
     would drop its requests the same way, so the count dropped is
     reported beside the ratio. *)
  let sa = ref 0 and sb = ref 0 and dropped = ref 0 in
  Array.iteri
    (fun i ai ->
      let bi = b.(i) in
      if ai <= 2 * bi && bi <= 2 * ai then begin
        sa := !sa + ai;
        sb := !sb + bi
      end
      else incr dropped)
    a;
  let coverage = if !sb > 0 then float_of_int !sa /. float_of_int !sb else 0. in
  per_span
  @ [
      ("trace.coverage", coverage, "ratio");
      ("trace.dropped_pairs", float_of_int !dropped, "count");
    ]
