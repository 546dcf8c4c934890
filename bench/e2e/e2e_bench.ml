(* End-to-end benchmark of `xrefine serve`: what a client of the server
   waits for, split layer by layer.

   For each workload it generates a DBLP-like corpus and a fixed request
   list from the seed, starts `xrefine serve` as a child process, drives
   it over loopback TCP in a closed loop with up to two connections,
   scrapes /metrics around the timed phase, checks the answers against
   an in-process server, and (with --trace 1) replays a prefix of the
   list with spans around every layer. Every metric is printed as
   `workload metric value unit`; a result file goes to --out, and the
   last line of output is one JSON object with the run's verdict.

     dune build && dune exec bench/e2e/e2e_bench.exe -- --seed 2009
     e2e_bench.exe --workload search_cold --seed 7 --seconds 10 --trace 0
     e2e_bench.exe --smoke
     e2e_bench.exe compare DIR_A DIR_B   # two sets of result files *)

module Http = Xr_server.Http
module Json = Xr_server.Json
module Server = Xr_server.Server
module Index = Xr_index.Index
module Rng = Xr_data.Rng
open Xr_e2e

let workload = ref ""
let seed = ref 2009
let seconds = ref 10.
let trace = ref 1
let smoke = ref false
let server = ref "_build/default/bin/xrefine.exe"
let out = ref "_build/e2e"

let speclist =
  [
    ( "--workload",
      Arg.Set_string workload,
      "NAME one of " ^ String.concat ", " Workload.names ^ " (default: all)" );
    ("--seed", Arg.Set_int seed, "N corpus and request-list seed (default 2009)");
    ("--seconds", Arg.Set_float seconds, "S length of each timed phase (default 10)");
    ( "--trace",
      Arg.Set_int trace,
      "0|1 also run the traced replay and report per-layer metrics (default 1)" );
    ("--smoke", Arg.Set smoke, " 300 publications, ~40 requests per workload, 10-request replay");
    ( "--server",
      Arg.Set_string server,
      "PATH the xrefine binary (default _build/default/bin/xrefine.exe)" );
    ("--out", Arg.Set_string out, "DIR corpus, result files and traces (default _build/e2e)");
  ]

let usage = "e2e_bench [options] | e2e_bench compare DIR_A DIR_B [BENCHMARK.json]"

(* The child serves [corpus.xml], which it names after the basename. *)
let corpus_name = "corpus"

(* Percentiles are emitted only with ten samples beyond them
   ({!Stat.percentile}); these are the ones tried. *)
let percentiles = [ ("p50", 500); ("p90", 900); ("p99", 990) ]

let sample_count = 32

(* Server start-ups per run; [setup_s] is their median. *)
let setups = 3

(* Untimed closed-loop seconds before each timed phase. *)
let warmup_s = 2.

(* A timed phase runs past --seconds (up to three times as long) until
   it has this many answers, so its p90 always has ten samples beyond
   it, even when a slow stretch of the host halves the refine rate. *)
let timed_minimum = 100

type metric = string * float * string

type outcome = {
  name : string;
  metrics : metric list;
  attempted : int;
  failed : int;
  correct : bool;
}

let host_cores = Domain.recommended_domain_count ()

let mode = if host_cores < 2 then "degraded" else "parallel"

(* Client connections: two, one per domain, on a host that has two
   cores for them. *)
let connections = max 1 (min 2 host_cores)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* ---- correctness gates -------------------------------------------------- *)

type gates = { mutable failures : int; mutable notes : string list }

let fail ?(count = 1) g fmt =
  Printf.ksprintf
    (fun msg ->
      g.failures <- g.failures + count;
      if List.length g.notes < 20 then g.notes <- msg :: g.notes)
    fmt

let json_field name body =
  match Json.of_string body with Ok j -> Json.member name j | Error _ -> None

(* ---- one workload ------------------------------------------------------- *)

let timed_ms (t : Http_run.timed) keep =
  let acc = ref [] in
  for i = t.Http_run.limit - 1 downto 0 do
    if t.Http_run.status.(i) <> 0 && keep (t.Http_run.first + i) then
      acc := (float_of_int t.Http_run.lat_ns.(i) /. 1e6) :: !acc
  done;
  Stat.sorted_copy (Array.of_list !acc)

let percentile_metrics prefix sorted =
  List.filter_map
    (fun (p, per_mille) ->
      Option.map
        (fun v -> (prefix ^ p ^ "_ms", v, "ms"))
        (Stat.percentile sorted ~per_mille))
    percentiles

(* Counters the server already exports, differenced across the timed
   phase. *)
let scrape_metrics ~before ~after ~sent ~client_mean =
  let d ?keep name = Prom.delta ?keep ~before ~after name in
  let ratio hit miss = if hit +. miss > 0. then hit /. (hit +. miss) else 0. in
  let per_req x = x /. float_of_int (max 1 sent) in
  let labelled k v name = d ~keep:(Prom.has (k, v)) name in
  let not_scrape l = not (Prom.has ("endpoint", "/metrics") l) in
  let server_mean =
    Prom.histogram_mean ~keep:not_scrape ~before ~after "xr_http_request_duration_ms"
  in
  [
    ("net.overhead_ms", client_mean -. server_mean, "ms");
    ("lru.hit_ratio", ratio (d "xr_cache_hits_total") (d "xr_cache_misses_total"), "ratio");
    ("lru.evictions", d "xr_cache_evictions_total", "count");
    ( "plan_cache.hit_ratio",
      ratio
        (labelled "event" "hit" "xr_plan_cache_events_total")
        (labelled "event" "miss" "xr_plan_cache_events_total"),
      "ratio" );
    ("coalesce.followers", labelled "role" "follower" "xr_coalesce_requests_total", "count");
    ("slca.fallbacks", d "xr_slca_fallbacks_total", "count");
    ("slca.tiny_scans", d "xr_slca_tiny_scans_total", "count");
    ("cursor.probes_per_req", per_req (d "xr_cursor_probes_total"), "count");
    ( "stats.cooccur_hit_ratio",
      ratio
        (labelled "outcome" "hit" "xr_stats_cooccur_memo_total")
        (labelled "outcome" "miss" "xr_stats_cooccur_memo_total"),
      "ratio" );
    ( "ingest.merge_ms_mean",
      Prom.histogram_mean ~before ~after "xr_ingest_merge_duration_ms",
      "ms" );
    ("pool.busy_s", d "xr_pool_busy_ns_total" /. 1e9, "s");
    ("pool.tasks", d "xr_pool_tasks_total", "count");
    ("pool.steals", d "xr_pool_steals_total", "count");
    ("gc.minor_words_per_req", per_req (d "xr_gc_minor_words_total"), "words");
    ("gc.promoted_words_per_req", per_req (d "xr_gc_promoted_words_total"), "words");
    ("gc.major_collections", d "xr_gc_major_collections_total", "count");
  ]

let s_parse_file = Span.name "setup.parse_file"
let s_doc_of_tree = Span.name "setup.doc_of_tree"
let s_index_build = Span.name "setup.index_build"
let s_start_corpora = Span.name "setup.start_corpora"

let start_reference index =
  Server.start_corpora
    { Server.default_config with Server.addr = Server.Tcp ("127.0.0.1", 0); domains = 1 }
    [ { Server.name = corpus_name; index; kv = None } ]

(* The in-process copy of what the child does at start-up, one span per
   step. *)
let build_reference setup corpus =
  let root id f = Span.root setup ~req:(-1) id f in
  let tree = root s_parse_file (fun () -> Xr_xml.Parser.parse_file corpus) in
  let doc = root s_doc_of_tree (fun () -> Xr_xml.Doc.of_tree tree) in
  let index = root s_index_build (fun () -> Index.build ~mode:Index.Flat doc) in
  root s_start_corpora (fun () -> start_reference index)

let setup_metrics setup =
  let _, self_ns = Span.totals setup in
  List.map
    (fun id -> (Span.name_string id ^ ".ms", float_of_int self_ns.(id) /. 1e6, "ms"))
    [ s_parse_file; s_doc_of_tree; s_index_build; s_start_corpora ]

let write_json path j =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.to_string j);
      Out_channel.output_char oc '\n')

let run_workload (scale : Workload.scale) name =
  let dir = !out in
  mkdir_p dir;
  let g = { failures = 0; notes = [] } in
  let clock = ref (Unix.gettimeofday ()) and phases = ref [] in
  let phase label =
    let now = Unix.gettimeofday () in
    phases := Printf.sprintf "%s %.1fs" label (now -. !clock) :: !phases;
    clock := now
  in
  let corpus = Filename.concat dir (corpus_name ^ ".xml") in
  Xr_xml.Printer.to_file corpus
    (Xr_data.Dblp.scaled ~publications:scale.Workload.publications ~seed:!seed);
  let lists_index = Index.of_file ~mode:Index.Flat corpus in
  if Xr_xml.Doc.keyword_id lists_index.Index.doc Workload.marker <> None then
    fail g "the marker keyword %s occurs in the generated corpus" Workload.marker;
  let wl = Workload.make scale ~seed:!seed name lists_index in
  phase "lists";
  let wires = Array.map Workload.wire wl.Workload.distinct in
  let kind_of i = (Workload.request wl i).Workload.kind in
  let is_read (r : Workload.request) = r.Workload.kind <> Workload.Ingest in
  let reads =
    List.init (Array.length wl.Workload.distinct) Fun.id
    |> List.filter (fun i -> is_read wl.Workload.distinct.(i))
    |> Array.of_list
  in
  let has_writes = Array.length reads < Array.length wl.Workload.distinct in
  (* Server set-up, several times; the last start serves the run. *)
  let rec start k acc =
    let child, s =
      Http_run.spawn ~server:!server ~corpus ~log:(Filename.concat dir "server.log")
    in
    if k > 1 then begin
      Http_run.stop child;
      start (k - 1) (s :: acc)
    end
    else (child, s :: acc)
  in
  let child, setup_samples = start setups [] in
  let port = child.Http_run.port in
  phase "server set-up";
  if wl.Workload.warm then begin
    (* every distinct read once, over the same connections *)
    let t =
      Http_run.run ~port ~conns:connections ~first:0 ~seconds:60. ~min_requests:0
        ~cap:(Array.length reads) ~keep_bodies:false
        { wl with Workload.order = reads; wrap = false }
        wires
    in
    Array.iteri
      (fun i st ->
        if st <> 200 then
          let r = wl.Workload.distinct.(reads.(i)) in
          fail g "warm-up %s answered %d" r.Workload.target st)
      t.Http_run.status
  end;
  (* A seeded sample of reads whose HTTP bodies must equal the
     in-process server's. Workloads with writes fetch it before the
     timed phase (the in-process server never sees those writes); the
     others after, so the check never warms a cold request. Cold samples
     skip the replayed prefix, which the replay sends to the in-process
     server cold. *)
  let sample ~upto =
    let candidates =
      if wl.Workload.wrap then Array.to_list reads
      else
        let lo = if upto > wl.Workload.replay then wl.Workload.replay else 0 in
        List.init (upto - lo) (fun k -> wl.Workload.order.(lo + k))
    in
    Workload.take sample_count (Rng.shuffle (Rng.create !seed) candidates)
    |> List.map (fun i -> (i, Http_run.exchange port wires.(i)))
  in
  let pre = if has_writes then sample ~upto:0 else [] in
  (* Slots for a phase: the whole list, or for a list that wraps, room
     for 200,000 requests a second. *)
  let run_phase ~first ~seconds ~min_requests ~keep_bodies =
    let cap =
      if !smoke then Array.length wl.Workload.order
      else max (Array.length wl.Workload.order) (int_of_float (seconds *. 200_000.))
    in
    Http_run.run ~port ~conns:connections ~first ~seconds ~min_requests ~cap ~keep_bodies wl
      wires
  in
  (* An untimed stretch of the same closed loop first, so the server's
     heap and caches are in their steady state when timing starts. The
     timed phase continues the list where it stopped, so a cold list
     still never repeats a request. *)
  let warm =
    run_phase ~first:0 ~seconds:(if !smoke then 0. else warmup_s) ~min_requests:0
      ~keep_bodies:false
  in
  let before = Http_run.scrape port in
  let timed =
    run_phase ~first:(Http_run.sent warm) ~seconds:!seconds ~min_requests:timed_minimum
      ~keep_bodies:(not wl.Workload.wrap)
  in
  phase "timed";
  let rss = Http_run.peak_rss_mb child.Http_run.pid in
  let after = Http_run.scrape port in
  let errors = ref 0 and acked = ref 0 in
  List.iter
    (fun (t : Http_run.timed) ->
      for i = 0 to t.Http_run.limit - 1 do
        match t.Http_run.status.(i) with
        | 0 -> ()
        | 200 -> if kind_of (t.Http_run.first + i) = Workload.Ingest then incr acked
        | _ -> incr errors
      done)
    [ warm; timed ];
  let attempted = Http_run.sent warm + Http_run.sent timed in
  let sent = Http_run.sent timed in
  if !errors > 0 then
    fail ~count:!errors g "%d requests failed (non-200 or I/O error)" !errors;
  let post = if has_writes then [] else sample ~upto:(timed.Http_run.first + sent) in
  if has_writes then begin
    (* every synced write acknowledged must be visible exactly once *)
    match Http_run.get port ("/search?q=" ^ Workload.marker ^ "&limit=1") with
    | Ok (200, body) -> (
      match json_field "count" body with
      | Some (Json.Int n) when n = !acked -> ()
      | Some (Json.Int n) -> fail g "marker count %d but %d writes acknowledged" n !acked
      | _ -> fail g "marker audit: no count in the answer")
    | Ok (st, _) -> fail g "marker audit answered %d" st
    | Error e -> fail g "marker audit: %s" e
  end;
  Http_run.stop child;
  (* Cold answers must carry what the workload exists to exercise. *)
  if not wl.Workload.wrap then
    for i = 0 to timed.Http_run.limit - 1 do
      if timed.Http_run.status.(i) = 200 then
        let body = timed.Http_run.bodies.(i) and pos = timed.Http_run.first + i in
        match kind_of pos with
        | Workload.Search -> (
          match json_field "count" body with
          | Some (Json.Int n) when n > 0 -> ()
          | _ -> fail g "search_cold request %d has no results" pos)
        | Workload.Refine -> (
          match json_field "outcome" body with
          | Some (Json.String _) -> ()
          | _ -> fail g "refine_cold request %d has no outcome" pos)
        | Workload.Ingest -> ()
    done;
  (* The in-process reference. The traced run builds it afresh, the way
     the child builds itself, so that neither copy the replay compares
     starts with memos warmed by generating the lists. *)
  let setup = Span.create () in
  let reference =
    if !trace = 0 then start_reference lists_index
    else begin
      Gc.full_major ();
      build_reference setup corpus
    end
  in
  List.iter
    (fun (i, fetched) ->
      let target = wl.Workload.distinct.(i).Workload.target in
      let expected = Server.handle reference (Replay.parse wires.(i)) in
      match fetched with
      | Ok (200, body) when String.equal body expected.Http.resp_body -> ()
      | Ok (200, _) -> fail g "sampled body differs from the in-process server: %s" target
      | Ok (st, _) -> fail g "sampled %s answered %d" target st
      | Error e -> fail g "sampled %s: %s" target e)
    (pre @ post);
  phase "checks";
  let replay_metrics =
    if !trace = 0 then []
    else begin
      let index_a = Index.of_file ~mode:Index.Flat corpus in
      let r = Replay.run ~index_a ~server_b:reference ~corpus:corpus_name wl in
      if r.Replay.mismatches > 0 then
        fail g "%d replayed bodies differ from Server.handle" r.Replay.mismatches;
      write_json
        (Filename.concat dir (Printf.sprintf "trace-%s.json" name))
        (Json.Obj
           [
             ("workload", Json.String name);
             ("seed", Json.Int !seed);
             ("replayed", Json.Int r.Replay.replayed);
             ("setup", Span.to_json setup);
             ("spans", Span.to_json r.Replay.spans);
           ]);
      phase "replay";
      Replay.metrics r
    end
  in
  Server.stop reference;
  Server.run reference;
  let all = timed_ms timed (fun _ -> true) in
  let of_kind k = timed_ms timed (fun i -> kind_of i = k) in
  let elapsed_s = float_of_int (Array.fold_left max 0 timed.Http_run.done_ns) /. 1e9 in
  let qps = if elapsed_s > 0. then float_of_int sent /. elapsed_s else 0. in
  let end_to_end =
    [ ("qps", qps, "1/s") ]
    @ percentile_metrics "" all
    @ [
        ("setup_s", Stat.median (Array.of_list setup_samples), "s");
        ("server_rss_mb", rss, "MiB");
      ]
  in
  let by_class =
    percentile_metrics "search_" (of_kind Workload.Search)
    @ percentile_metrics "refine_" (of_kind Workload.Refine)
    @ List.filter
        (fun (n, _, _) -> n = "ingest_p50_ms")
        (percentile_metrics "ingest_" (of_kind Workload.Ingest))
    @ [ ("error_rate", float_of_int g.failures /. float_of_int (max 1 attempted), "ratio") ]
  in
  let per_layer =
    if !trace = 0 then []
    else
      scrape_metrics ~before ~after ~sent ~client_mean:(Stat.mean all)
      @ replay_metrics @ setup_metrics setup
  in
  Printf.eprintf "e2e %s: %s\n%!" name (String.concat ", " (List.rev !phases));
  List.iter (fun note -> Printf.eprintf "e2e %s: FAIL %s\n%!" name note) (List.rev g.notes);
  {
    name;
    metrics = end_to_end @ by_class @ per_layer;
    attempted;
    failed = g.failures;
    correct = g.failures = 0;
  }

(* ---- reporting ------------------------------------------------------------ *)

(* The metrics the verdict line carries: the end-to-end set without
   tracing, the per-layer set with it. *)
let end_to_end_names = [ "qps"; "p90_ms"; "setup_s"; "server_rss_mb" ]

let is_per_layer name = String.contains name '.'

let verdict_metrics o =
  List.filter
    (fun (n, v, _) ->
      Float.is_finite v
      && if !trace = 0 then List.mem n end_to_end_names else is_per_layer n)
    o.metrics

let verdict_line o =
  let metric (n, v, u) = Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.correct o.attempted o.failed
    (String.concat ", " (List.map metric (verdict_metrics o)))

let report o =
  Printf.printf "# %s seed %d host_cores %d mode %s connections %d\n" o.name !seed host_cores
    mode connections;
  List.iter (fun (n, v, u) -> Printf.printf "%s %s %.6g %s\n" o.name n v u) o.metrics;
  let results = Filename.concat !out "results" in
  mkdir_p results;
  write_json
    (Filename.concat results
       (Printf.sprintf "%s-seed%d-%.0f.json" o.name !seed (Unix.gettimeofday () *. 1e3)))
    (Json.Obj
       [
         ("workload", Json.String o.name);
         ("seed", Json.Int !seed);
         ("seconds", Json.Float !seconds);
         ("trace", Json.Int !trace);
         ("host_cores", Json.Int host_cores);
         ("mode", Json.String mode);
         ("connections", Json.Int connections);
         ("correct", Json.Bool o.correct);
         ("attempted", Json.Int o.attempted);
         ("failed", Json.Int o.failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (n, v, u) ->
                  (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
                o.metrics) );
       ]);
  print_endline (verdict_line o)

(* ---- compare --------------------------------------------------------------- *)

let read_json path =
  match Json.of_string (In_channel.with_open_text path In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (path ^ ": " ^ e)

let number = function
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let string_field name j = match Json.member name j with Some (Json.String s) -> s | _ -> ""

(* Result files of one set, in name (= time) order: (workload, metrics). *)
let load_set dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort String.compare
  |> List.map (fun f ->
         let j = read_json (Filename.concat dir f) in
         let metrics =
           match Json.member "metrics" j with
           | Some (Json.Obj fields) ->
             List.filter_map
               (fun (n, m) -> Option.map (fun v -> (n, v)) (number (Json.member "value" m)))
               fields
           | _ -> []
         in
         (string_field "workload" j, metrics))

(* [compare a b] prints, per (workload, end-to-end metric), each set's
   median and quartiles and spread, how often the paired runs of B beat
   A's, and whether the medians differ by less than the metric's bound
   and each spread stays within it. *)
let compare_sets dir_a dir_b bench_file =
  let spec =
    match Json.member "end_to_end" (read_json bench_file) with
    | Some (Json.List l) ->
      List.map
        (fun m ->
          ( string_field "name" m,
            string_field "better" m = "higher",
            Option.value ~default:0. (number (Json.member "bound" m)) ))
        l
    | _ -> failwith (bench_file ^ ": no end_to_end list")
  in
  let a = load_set dir_a and b = load_set dir_b in
  let ok = ref true in
  Printf.printf "%-13s %-14s %-32s %-32s %-9s %-8s %-6s %s\n" "workload" "metric"
    "A median [q1 q3] spread" "B median [q1 q3] spread" "B wins" "diff" "bound" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun (m, higher, bound) ->
          let values set =
            Array.of_list
              (List.filter_map
                 (fun (w', ms) -> if w' = w then List.assoc_opt m ms else None)
                 set)
          in
          let va = values a and vb = values b in
          if Array.length va > 0 && Array.length vb > 0 then begin
            let summary v =
              let q1, _, q3 = Stat.quartiles v and med = Stat.median v in
              (med, q1, q3, if med <> 0. then (q3 -. q1) /. Float.abs med else 0.)
            in
            let ma, q1a, q3a, sa = summary va and mb, q1b, q3b, sb = summary vb in
            let pairs = min (Array.length va) (Array.length vb) in
            let wins = ref 0 in
            for i = 0 to pairs - 1 do
              let better = if higher then vb.(i) > va.(i) else vb.(i) < va.(i) in
              if better then incr wins
            done;
            let diff = if ma <> 0. then (mb -. ma) /. Float.abs ma else 0. in
            let median_ok = Float.abs diff < bound in
            let spread_ok = sa <= bound && sb <= bound in
            if not (median_ok && spread_ok) then ok := false;
            let cell med q1 q3 s = Printf.sprintf "%.4g [%.4g %.4g] %.3f" med q1 q3 s in
            Printf.printf "%-13s %-14s %-32s %-32s %-9s %+-8.3f %-6.3g %s\n" w m (cell ma q1a q3a sa)
              (cell mb q1b q3b sb)
              (Printf.sprintf "%d/%d" !wins pairs)
              diff bound
              (match (median_ok, spread_ok) with
              | true, true -> "ok"
              | false, _ -> "MEDIANS DIFFER"
              | true, false -> "SPREAD")
          end)
        spec)
    Workload.names;
  if not !ok then exit 1

(* ---- main ------------------------------------------------------------------- *)

let () =
  match Array.to_list Sys.argv with
  | _ :: "compare" :: dir_a :: dir_b :: rest ->
    compare_sets dir_a dir_b (match rest with f :: _ -> f | [] -> "BENCHMARK.json")
  | _ ->
    Arg.parse speclist (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
    if !trace <> 0 && !trace <> 1 then begin
      prerr_endline "e2e_bench: --trace takes 0 or 1";
      exit 2
    end;
    if not (Sys.file_exists !server) then begin
      Printf.eprintf
        "e2e_bench: no server binary at %s (run dune build first, or pass --server)\n" !server;
      exit 2
    end;
    let scale = if !smoke then Workload.smoke else Workload.full in
    if !smoke then seconds := 60.;
    let names =
      if !workload = "" then Workload.names
      else if List.mem !workload Workload.names then [ !workload ]
      else (Printf.eprintf "e2e_bench: unknown workload %s\n" !workload; exit 2)
    in
    (* The load generator's own queries run on this domain alone, so the
       replay is single-threaded and the timed phase uses exactly its
       client connections. *)
    Xr_pool.reset_global ~domains:1 ();
    (* Exit through [at_exit] on a signal, so child servers are stopped. *)
    List.iter
      (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
      [ Sys.sigint; Sys.sigterm ];
    let outcomes = List.map (fun n -> let o = run_workload scale n in report o; o) names in
    if not (List.for_all (fun o -> o.correct) outcomes) then exit 1
