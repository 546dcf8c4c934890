(* EXPLAIN/ANALYZE introspection: golden plan text for every bundled
   corpus in both index representations (the `--explain-plan` contract —
   regenerate with XR_EXPLAIN_PRINT=1), byte-identity of ANALYZE runs
   against normal execution at pool sizes 1 and 4, the report's actual
   contents (stages, cost-model chunks, pool-task GC folding), runtime
   GC deltas, and exemplar capture/exposition. *)

module Index = Xr_index.Index
module Inverted = Xr_index.Inverted
module Doc = Xr_xml.Doc
module Plan = Xr_batch.Plan
module Explain = Xr_batch.Explain
module Analyze = Xr_obs.Analyze
module Runtime = Xr_obs.Runtime
module Registry = Xr_obs.Registry
module Engine = Xr_refine.Engine
module Parallel = Xr_slca.Parallel
module P = Xr_xml.Dewey.Packed

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ---- corpora -------------------------------------------------------------- *)

(* The same four documents the benches use; dblp at the deterministic
   300-publication smoke scale. *)
let docs =
  lazy
    [
      ("figure1", Xr_data.Figure1.doc ());
      ("baseball", Xr_data.Baseball.doc ());
      ("auction", Xr_data.Auction.doc ());
      ("dblp", Doc.of_tree (Xr_data.Dblp.scaled ~publications:300 ~seed:2009));
    ]

let doc_of name = List.assoc name (Lazy.force docs)

(* Top-2 keywords by posting count: a deterministic frequent pair that
   exists in every corpus (ties broken by keyword id via stable sort). *)
let frequent_pair (index : Index.t) =
  let acc = ref [] in
  Inverted.iter_packed
    (fun kw pk ->
      let n = Inverted.packed_postings pk in
      if n > 0 then acc := (kw, n) :: !acc)
    index.Index.inverted;
  match
    List.stable_sort (fun (_, a) (_, b) -> Int.compare b a) (List.rev !acc)
  with
  | (k0, _) :: (k1, _) :: _ ->
    [ Doc.keyword_name index.Index.doc k0; Doc.keyword_name index.Index.doc k1 ]
  | _ -> Alcotest.fail "corpus has fewer than two keywords"

(* ---- golden explain text -------------------------------------------------- *)

(* Expected `--explain-plan` text per (corpus, mode) for the frequent
   pair, with the chunk computation pinned to a pool of 2 so the output
   does not depend on the host's core count. *)
let golden =
  [
    ( "figure1",
      "flat",
      "plan: tiny kernel (algorithm scan-parallel, index flat)\n\
      \  reason: driver range 6 <= tiny threshold 24: cursor-free tiny kernel\n\
      \  lists: title                id=7      postings=6\n\
      \         year                 id=12     postings=6\n" );
    ( "figure1",
      "dag",
      "plan: tiny kernel (algorithm scan-parallel, index dag)\n\
      \  reason: driver range 6 <= tiny threshold 24: cursor-free tiny kernel\n\
      \  lists: title                id=7      postings=6\n\
      \         year                 id=12     postings=6\n" );
    ( "baseball",
      "flat",
      "plan: scan kernel (algorithm scan-parallel, index flat)\n\
      \  reason: estimated cost 1706 below parallel threshold 4096: sequential scan\n\
      \  lists: name                 id=4      postings=578\n\
      \         runs                 id=25     postings=1080\n\
      \  parallel: estimate=1706 threshold=4096 measured=- pool=2\n" );
    ( "baseball",
      "dag",
      "plan: scan kernel (algorithm scan-parallel, index dag)\n\
      \  reason: estimated cost 1706 below parallel threshold 4096: sequential scan\n\
      \  lists: name                 id=4      postings=578\n\
      \         runs                 id=25     postings=1080\n\
      \  parallel: estimate=1706 threshold=4096 measured=- pool=2\n" );
    ( "auction",
      "flat",
      "plan: scan kernel (algorithm scan-parallel, index flat)\n\
      \  reason: estimated cost 439 below parallel threshold 4096: sequential scan\n\
      \  lists: interest             id=488    postings=161\n\
      \         name                 id=5      postings=212\n\
      \  parallel: estimate=439 threshold=4096 measured=- pool=2\n" );
    ( "auction",
      "dag",
      "plan: scan kernel (algorithm scan-parallel, index dag)\n\
      \  reason: estimated cost 439 below parallel threshold 4096: sequential scan\n\
      \  lists: interest             id=488    postings=161\n\
      \         name                 id=5      postings=212\n\
      \  parallel: estimate=439 threshold=4096 measured=- pool=2\n" );
    ( "dblp",
      "flat",
      "plan: scan kernel (algorithm scan-parallel, index flat)\n\
      \  reason: estimated cost 903 below parallel threshold 4096: sequential scan\n\
      \  lists: title                id=9      postings=300\n\
      \         author               id=2      postings=607\n\
      \  parallel: estimate=903 threshold=4096 measured=- pool=2\n" );
    ( "dblp",
      "dag",
      "plan: scan kernel (algorithm scan-parallel, index dag)\n\
      \  reason: estimated cost 903 below parallel threshold 4096: sequential scan\n\
      \  lists: title                id=9      postings=300\n\
      \         author               id=2      postings=607\n\
      \  parallel: estimate=903 threshold=4096 measured=- pool=2\n" );
  ]

let test_golden (name, mode_name, expected) () =
  let mode = Option.get (Index.mode_of_name mode_name) in
  let index = Index.build ~mode (doc_of name) in
  let query = frequent_pair index in
  let x = Plan.explain_search ~pool_size:2 index query in
  let text = Explain.search_to_text x in
  if Sys.getenv_opt "XR_EXPLAIN_PRINT" = Some "1" then
    Printf.printf "=== %s %s ===\n%s" name mode_name text
  else
    check Alcotest.string (Printf.sprintf "%s/%s explain text" name mode_name)
      expected text

(* The refine variant appends the statically-pruned rule list. *)
let test_refine_explain () =
  let index = Index.build ~mode:Index.Flat (doc_of "figure1") in
  let x = Plan.explain_refine index [ "john"; "ben" ] in
  let text = Explain.refine_to_text x in
  let contains needle =
    let n = String.length needle and len = String.length text in
    let rec scan i = i + n <= len && (String.sub text i n = needle || scan (i + 1)) in
    scan 0
  in
  check Alcotest.bool "has plan header" true (contains "plan: ");
  check Alcotest.bool "has rules section" true (contains "rules (")

(* ---- ANALYZE byte identity ------------------------------------------------ *)

(* ANALYZE must observe, never perturb: the same query returns
   byte-identical results with and without a report ambient, at pool
   size 1 (all-sequential) and 4 (parallel chunking under a forced-zero
   threshold). Queries are random keyword subsets of the dblp corpus. *)
let prop_analyze_identity domains =
  let index = Index.build ~mode:Index.Flat (doc_of "dblp") in
  let keywords =
    let acc = ref [] in
    Inverted.iter_packed
      (fun kw pk ->
        if Inverted.packed_postings pk > 0 then
          acc := Doc.keyword_name index.Index.doc kw :: !acc)
      index.Index.inverted;
    Array.of_list (List.rev !acc)
  in
  let gen =
    QCheck.Gen.(
      map
        (fun picks -> List.sort_uniq String.compare picks)
        (list_size (int_range 1 3) (oneofl (Array.to_list keywords))))
  in
  QCheck.Test.make
    ~name:(Printf.sprintf "analyze = normal execution, pool %d" domains)
    ~count:30
    (QCheck.make gen ~print:(String.concat " "))
    (fun query ->
      let old_threshold = Parallel.threshold () in
      Xr_pool.reset_global ~domains ();
      Fun.protect
        ~finally:(fun () ->
          Parallel.set_threshold old_threshold;
          Xr_pool.reset_global ~domains:1 ())
        (fun () ->
          Parallel.set_threshold 0;
          let render slcas =
            String.concat ";" (List.map Xr_xml.Dewey.to_string slcas)
          in
          let normal = render (Engine.search index query) in
          let analyzed, _report =
            Analyze.with_report (fun () -> render (Engine.search index query))
          in
          String.equal normal analyzed))

(* ---- the report's contents ------------------------------------------------ *)

let test_report_stages () =
  let index = Index.build ~mode:Index.Flat (doc_of "figure1") in
  let _, report = Analyze.with_report (fun () -> Engine.search index [ "john"; "ben" ]) in
  let stages = Analyze.stages report in
  let names = List.map (fun (s : Analyze.stage) -> s.Analyze.sg_name) stages in
  check Alcotest.bool "slca.scan noted" true (List.mem "slca.scan" names);
  check Alcotest.bool "slca.filter noted" true (List.mem "slca.filter" names);
  List.iter
    (fun (s : Analyze.stage) ->
      check Alcotest.bool (s.Analyze.sg_name ^ " counts non-negative") true
        (s.Analyze.sg_in >= 0 && s.Analyze.sg_out >= 0))
    stages;
  (* The channel uninstalls on exit: notes after the report are dropped. *)
  check Alcotest.bool "inactive after with_report" false (Analyze.active ())

(* Cost-modeled parallel chunks land in the ambient report, with
   modeled and measured shares that each sum to ~1 and positive wall
   times; the drift histogram gains one observation per chunk. *)
let test_report_chunks () =
  let old_threshold = Parallel.threshold () in
  Xr_pool.reset_global ~domains:4 ();
  Fun.protect
    ~finally:(fun () ->
      Parallel.set_threshold old_threshold;
      Xr_pool.reset_global ~domains:1 ())
    (fun () ->
      Parallel.set_threshold 0;
      let list_a = List.init 1024 (fun i -> [| 1; i |]) in
      let list_b = List.init 1024 (fun i -> [| 1; i; 0 |]) in
      let pks = List.map P.of_list [ list_a; list_b ] in
      let sequential = Xr_slca.Scan_packed.compute pks in
      let result, report = Analyze.with_report (fun () -> Parallel.compute pks) in
      check Alcotest.bool "parallel = sequential" true
        (List.equal Xr_xml.Dewey.equal result sequential);
      let chunks = Analyze.chunks report in
      check Alcotest.bool "at least two chunks" true (List.length chunks >= 2);
      let sum f = List.fold_left (fun acc c -> acc +. f c) 0. chunks in
      let close a b = Float.abs (a -. b) < 1e-6 in
      check Alcotest.bool "modeled shares sum to 1" true
        (close (sum (fun (c : Analyze.chunk) -> c.Analyze.ck_modeled)) 1.);
      check Alcotest.bool "measured shares sum to 1" true
        (close (sum (fun (c : Analyze.chunk) -> c.Analyze.ck_measured)) 1.);
      List.iter
        (fun (c : Analyze.chunk) ->
          check Alcotest.bool "chunk wall time positive" true (c.Analyze.ck_ns > 0.))
        chunks;
      check Alcotest.bool "pool tasks counted" true (Analyze.tasks report > 0))

(* ---- runtime GC deltas ---------------------------------------------------- *)

let test_runtime_delta () =
  let s0 = Runtime.capture () in
  let l = List.init 50_000 (fun i -> string_of_int i) in
  ignore (Sys.opaque_identity l);
  let d = Runtime.delta s0 in
  (* Gc.minor_words counts live-arena allocation, so a pure-OCaml
     allocation burst must be visible without waiting for a minor GC. *)
  check Alcotest.bool "minor words observed" true (d.Runtime.d_minor_words > 0.);
  check Alcotest.bool "allocated = minor + major - promoted" true
    (Runtime.allocated_words d
    = d.Runtime.d_minor_words +. d.Runtime.d_major_words -. d.Runtime.d_promoted_words);
  let z = Runtime.zero in
  check Alcotest.bool "zero is additive identity" true
    (Runtime.add z d = d && Runtime.add d z = d);
  (* Registration is idempotent (second call must not raise on
     duplicate families). *)
  Runtime.register ();
  Runtime.register ()

let exported name =
  match
    List.find_opt
      (fun m -> m.Registry.m_name = name)
      (Registry.collect (Registry.default ()))
  with
  | Some { Registry.m_samples = [ { Registry.s_value = Registry.V_int v; _ } ]; _ } -> v
  | _ -> Alcotest.failf "no single %s counter sample in the registry" name

(* /metrics is answered by whichever worker domain takes the scrape, so
   the exported allocation counters must include what other domains
   allocated, not only the scraping domain's own arena. *)
let test_gc_counters_all_domains () =
  Runtime.register ();
  let words = 10_000_000 in
  let minor0 = exported "xr_gc_minor_words_total" in
  let alloc0 = exported "xr_gc_allocated_words_total" in
  Domain.join
    (Domain.spawn (fun () ->
         (* a pair is three words: header plus two fields *)
         for i = 1 to (words / 3) + 1 do
           ignore (Sys.opaque_identity (i, i))
         done));
  let minor = exported "xr_gc_minor_words_total" - minor0 in
  let alloc = exported "xr_gc_allocated_words_total" - alloc0 in
  if minor < words then
    Alcotest.failf "xr_gc_minor_words_total rose by %d, want >= %d" minor words;
  if alloc < words then
    Alcotest.failf "xr_gc_allocated_words_total rose by %d, want >= %d" alloc words

(* ---- exemplars ------------------------------------------------------------ *)

let test_exemplars () =
  let reg = Registry.create () in
  let fam =
    Registry.Histogram.family ~registry:reg ~name:"ex_ms" ~help:"exemplar probe"
      ~buckets:[| 1.; 10. |] ()
  in
  let h = Registry.Histogram.no_labels fam in
  (* trace id 0 = tracing off: no exemplar is stored. *)
  Registry.Histogram.observe h 0.5;
  Registry.Histogram.observe ~trace_id:0 h 20.;
  check Alcotest.bool "no exemplars yet" true
    (Array.for_all Option.is_none (Registry.Histogram.exemplars h));
  (* A non-zero trace id lands in the observation's bucket,
     last-writer-wins. *)
  Registry.Histogram.observe ~trace_id:7 h 5.;
  Registry.Histogram.observe ~trace_id:9 h 6.;
  (match (Registry.Histogram.exemplars h).(1) with
  | Some ex ->
    check Alcotest.int "latest trace id wins" 9 ex.Registry.ex_trace;
    check (Alcotest.float 1e-9) "exemplar value" 6. ex.Registry.ex_value
  | None -> Alcotest.fail "no exemplar in bucket le=10");
  let text = Xr_obs.Expo.render reg in
  let contains needle =
    let n = String.length needle and len = String.length text in
    let rec scan i = i + n <= len && (String.sub text i n = needle || scan (i + 1)) in
    scan 0
  in
  check Alcotest.bool "bucket line carries exemplar" true
    (contains {|ex_ms_bucket{le="10"} 3 # {trace_id="9"} 6|});
  check Alcotest.bool "unexemplared bucket is plain" true
    (contains {|ex_ms_bucket{le="1"} 1
|})

(* ---- suite ---------------------------------------------------------------- *)

let () =
  Alcotest.run "explain"
    [
      ( "golden",
        List.map
          (fun ((name, mode, _) as g) ->
            Alcotest.test_case (name ^ "/" ^ mode) `Quick (test_golden g))
          golden
        @ [ Alcotest.test_case "refine rules section" `Quick test_refine_explain ] );
      ( "analyze",
        [
          qcheck (prop_analyze_identity 1);
          qcheck (prop_analyze_identity 4);
          Alcotest.test_case "report stages" `Quick test_report_stages;
          Alcotest.test_case "report chunks + drift" `Quick test_report_chunks;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "gc delta" `Quick test_runtime_delta;
          Alcotest.test_case "gc counters count every domain" `Quick
            test_gc_counters_all_domains;
        ] );
      ( "exemplars",
        [ Alcotest.test_case "capture and exposition" `Quick test_exemplars ] );
    ]
