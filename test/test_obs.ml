(* Observability: Prometheus exposition invariants (escaping, label
   ordering, histogram cumulativity), registry semantics (idempotent
   registration, shard aggregation = single-shard totals under
   multi-domain updates), and span-tree well-formedness for traced
   queries submitted as pool tasks at pool sizes 1 and 4. *)

module Registry = Xr_obs.Registry
module Expo = Xr_obs.Expo
module Tracing = Xr_obs.Tracing
module Slca_engine = Xr_slca.Engine
module P = Xr_xml.Dewey.Packed

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let contains hay needle =
  let n = String.length needle and len = String.length hay in
  let rec scan i = i + n <= len && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

(* ---- exposition: escaping ------------------------------------------------- *)

let test_escaping () =
  check Alcotest.string "label backslash" {|a\\b|} (Expo.escape_label_value {|a\b|});
  check Alcotest.string "label quote" {|say \"hi\"|} (Expo.escape_label_value {|say "hi"|});
  check Alcotest.string "label newline" {|line1\nline2|}
    (Expo.escape_label_value "line1\nline2");
  check Alcotest.string "label mixed" {|\\\"\n|} (Expo.escape_label_value "\\\"\n");
  check Alcotest.string "help keeps quotes" {|a "b" c\\d\ne|}
    (Expo.escape_help "a \"b\" c\\d\ne");
  (* Escaped values round out to a well-formed sample line. *)
  let reg = Registry.create () in
  let fam =
    Registry.Counter.family ~registry:reg ~name:"esc_total" ~help:"escape probe"
      ~label_names:[ "v" ] ()
  in
  Registry.Counter.add (Registry.Counter.handle fam [ "q\"nl\nbs\\end" ]) 7;
  let text = Expo.render reg in
  check Alcotest.bool "rendered sample escapes all three" true
    (contains text {|esc_total{v="q\"nl\nbs\\end"} 7|})

(* ---- exposition: label and family ordering -------------------------------- *)

let test_label_ordering () =
  let reg = Registry.create () in
  (* Declaration order of label names must survive into the output even
     when it is not alphabetical. *)
  let fam =
    Registry.Counter.family ~registry:reg ~name:"ord_total" ~help:"ordering probe"
      ~label_names:[ "zeta"; "alpha" ] ()
  in
  Registry.Counter.inc (Registry.Counter.handle fam [ "z1"; "a1" ]);
  Registry.Counter.inc (Registry.Counter.handle fam [ "z2"; "a2" ]);
  let gauge =
    Registry.Gauge.family ~registry:reg ~name:"ord_gauge" ~help:"second family" ()
  in
  Registry.Gauge.set (Registry.Gauge.no_labels gauge) 2.5;
  let text = Expo.render reg in
  check Alcotest.bool "zeta printed before alpha" true
    (contains text {|ord_total{zeta="z1",alpha="a1"} 1|});
  check Alcotest.bool "second series same order" true
    (contains text {|ord_total{zeta="z2",alpha="a2"} 1|});
  (* Families render in registration order: counter block before gauge. *)
  let index_of needle =
    let n = String.length needle and len = String.length text in
    let rec go i =
      if i + n > len then Alcotest.failf "%s not rendered" needle
      else if String.sub text i n = needle then i
      else go (i + 1)
    in
    go 0
  in
  check Alcotest.bool "counter family before gauge family" true
    (index_of "ord_total" < index_of "ord_gauge");
  check Alcotest.bool "TYPE lines present" true
    (contains text "# TYPE ord_total counter" && contains text "# TYPE ord_gauge gauge")

(* ---- exposition: histogram ------------------------------------------------ *)

let test_histogram_exposition () =
  let reg = Registry.create () in
  let fam =
    Registry.Histogram.family ~registry:reg ~name:"h_ms" ~help:"histogram probe"
      ~buckets:[| 1.; 5.; 10. |] ()
  in
  let h = Registry.Histogram.no_labels fam in
  List.iter (Registry.Histogram.observe h) [ 0.5; 3.; 3.; 7.5; 100. ];
  (* Raw counts: [0.5] [3 3] [7.5] [100] *)
  check Alcotest.(array int) "raw per-bucket counts" [| 1; 2; 1; 1 |]
    (Registry.Histogram.raw_counts h);
  let cum = Registry.Histogram.cumulative_counts h in
  check Alcotest.(array int) "cumulative counts" [| 1; 3; 4; 5 |] cum;
  Array.iteri
    (fun i c -> if i > 0 then check Alcotest.bool "monotone" true (c >= cum.(i - 1)))
    cum;
  check Alcotest.int "count = +inf bucket" 5 (Registry.Histogram.count h);
  check (Alcotest.float 1e-6) "sum" 114.0 (Registry.Histogram.sum h);
  let text = Expo.render reg in
  check Alcotest.bool "TYPE histogram" true (contains text "# TYPE h_ms histogram");
  List.iter
    (fun line -> check Alcotest.bool line true (contains text line))
    [
      {|h_ms_bucket{le="1"} 1|};
      {|h_ms_bucket{le="5"} 3|};
      {|h_ms_bucket{le="10"} 4|};
      {|h_ms_bucket{le="+Inf"} 5|};
      {|h_ms_sum 114|};
      {|h_ms_count 5|};
    ]

(* ---- registry: idempotent registration ------------------------------------ *)

let test_idempotent_registration () =
  let reg = Registry.create () in
  let f1 = Registry.Counter.family ~registry:reg ~name:"dup_total" ~help:"one" () in
  Registry.Counter.inc (Registry.Counter.no_labels f1);
  (* Same name+kind+labels: the same family comes back, values shared. *)
  let f2 = Registry.Counter.family ~registry:reg ~name:"dup_total" ~help:"one" () in
  Registry.Counter.inc (Registry.Counter.no_labels f2);
  check Alcotest.int "shared series" 2 (Registry.Counter.value (Registry.Counter.no_labels f1));
  (* Kind or label mismatch is a programming error. *)
  (match Registry.Gauge.family ~registry:reg ~name:"dup_total" ~help:"one" () with
  | _ -> Alcotest.fail "kind mismatch must raise"
  | exception Invalid_argument _ -> ());
  match Registry.Counter.family ~registry:reg ~name:"dup_total" ~help:"one"
          ~label_names:[ "x" ] ()
  with
  | _ -> Alcotest.fail "label mismatch must raise"
  | exception Invalid_argument _ -> ()

(* ---- registry: shard aggregation = single shard --------------------------- *)

type op = Inc of int | Add of int * int | Obs of int * float

let labels = [| "a"; "b"; "c" |]

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 1 200)
      (frequency
         [
           (3, map (fun l -> Inc l) (int_bound 2));
           (2, map2 (fun l n -> Add (l, n)) (int_bound 2) (int_range 0 50));
           (3, map2 (fun l v -> Obs (l, v)) (int_bound 2) (float_range 0. 25.));
         ]))

let arb_ops =
  let print ops = Printf.sprintf "%d ops" (List.length ops) in
  QCheck.make ~print gen_ops

(* Apply the same op list to a registry, spread over 4 domains (so the
   16-shard registry really does scatter across shard cells), and read
   back per-label totals. *)
let apply_and_read ~shards ops =
  let reg = Registry.create ~shards () in
  let cf =
    Registry.Counter.family ~registry:reg ~name:"p_total" ~help:"p" ~label_names:[ "l" ] ()
  in
  let hf =
    Registry.Histogram.family ~registry:reg ~name:"p_ms" ~help:"p" ~label_names:[ "l" ]
      ~buckets:[| 1.; 5.; 10. |] ()
  in
  let ch l = Registry.Counter.handle cf [ labels.(l) ] in
  let hh l = Registry.Histogram.handle hf [ labels.(l) ] in
  let arr = Array.of_list ops in
  let worker d () =
    Array.iteri
      (fun i opv ->
        if i mod 4 = d then
          match opv with
          | Inc l -> Registry.Counter.inc (ch l)
          | Add (l, n) -> Registry.Counter.add (ch l) n
          | Obs (l, v) -> Registry.Histogram.observe (hh l) v)
      arr
  in
  let doms = Array.init 4 (fun d -> Domain.spawn (worker d)) in
  Array.iter Domain.join doms;
  Array.to_list
    (Array.init 3 (fun l ->
         ( Registry.Counter.value (ch l),
           Registry.Histogram.raw_counts (hh l),
           Registry.Histogram.sum (hh l) )))

let prop_shard_aggregation =
  QCheck.Test.make ~name:"sharded totals = single-shard totals" ~count:30 arb_ops
    (fun ops ->
      let sharded = apply_and_read ~shards:16 ops in
      let single = apply_and_read ~shards:1 ops in
      List.for_all2
        (fun (c1, rc1, s1) (c2, rc2, s2) ->
          c1 = c2 && rc1 = rc2 && Float.abs (s1 -. s2) < 1e-9)
        sharded single)

(* ---- span trees under pool sizes 1 and 4 ---------------------------------- *)

let well_formed_spans domains () =
  Tracing.enable ();
  Tracing.clear ();
  Xr_pool.reset_global ~domains ();
  Fun.protect
    ~finally:(fun () ->
      Tracing.disable ();
      Xr_pool.reset_global ~domains:1 ())
    (fun () ->
      let list_a = List.init 512 (fun i -> [| 1; i |]) in
      let list_b = List.init 512 (fun i -> [| 1; i; 0 |]) in
      let pks = List.map P.of_list [ list_a; list_b ] in
      let sequential = Xr_slca.Scan_packed.compute pks in
      (* Eight traced scans submitted as one pool batch, the shape of
         the multi-shard scatter: the trace context is captured at
         submit and re-installed on whichever domain runs each task. *)
      let ntasks = 8 in
      let results = Array.make ntasks [] in
      let scan i () =
        results.(i) <- Slca_engine.compute_packed Slca_engine.Scan_packed pks
      in
      let (), tid =
        Tracing.with_trace "query" (fun () ->
            Xr_pool.run (Xr_pool.global ()) (Array.init ntasks scan))
      in
      Array.iter
        (fun result ->
          check Alcotest.bool "traced result = sequential" true
            (List.equal Xr_xml.Dewey.equal result sequential))
        results;
      check Alcotest.bool "trace id assigned" true (tid > 0);
      let spans = Tracing.spans_of_trace tid in
      check Alcotest.bool "spans recorded" true (List.length spans >= 1);
      let module IS = Set.Make (Int) in
      let ids = List.map (fun (s : Tracing.span) -> s.Tracing.span_id) spans in
      check Alcotest.int "span ids unique" (List.length ids) (IS.cardinal (IS.of_list ids));
      let id_set = IS.of_list ids in
      let roots =
        List.filter (fun (s : Tracing.span) -> s.Tracing.parent_id = 0) spans
      in
      check Alcotest.int "exactly one root" 1 (List.length roots);
      let root = List.hd roots in
      check Alcotest.string "root name" "query" root.Tracing.name;
      List.iter
        (fun (s : Tracing.span) ->
          check Alcotest.int "same trace" tid s.Tracing.trace_id;
          if s.Tracing.parent_id <> 0 then
            check Alcotest.bool "parent recorded" true (IS.mem s.Tracing.parent_id id_set))
        spans;
      (* Time containment: every non-root span lies within the root. *)
      let fin (s : Tracing.span) = Int64.add s.Tracing.start_ns s.Tracing.dur_ns in
      List.iter
        (fun (s : Tracing.span) ->
          check Alcotest.bool "starts after root" true
            (Int64.compare root.Tracing.start_ns s.Tracing.start_ns <= 0);
          check Alcotest.bool "ends before root" true (Int64.compare (fin s) (fin root) <= 0))
        spans;
      (* The forest view reconnects every span under the single root. *)
      let forest = Tracing.tree_of_spans spans in
      let rec count (t : Tracing.tree) =
        1 + List.fold_left (fun acc c -> acc + count c) 0 t.Tracing.children
      in
      check Alcotest.int "one tree" 1 (List.length forest);
      check Alcotest.int "tree spans all spans" (List.length spans)
        (count (List.hd forest));
      let named n =
        List.length (List.filter (fun (s : Tracing.span) -> s.Tracing.name = n) spans)
      in
      check Alcotest.int "every task's scan attached" ntasks (named "slca.scan");
      (* Fan-out really happened: each task ran under a pool.task span,
         wherever it was stolen to, inside this trace. *)
      if domains >= 2 then
        check Alcotest.int "pool.task spans" ntasks (named "pool.task");
      (* The rendered tree carries the stage-coverage summary line. *)
      let rendered = Tracing.render_tree spans in
      check Alcotest.bool "render has summary" true (contains rendered "ms total"))

(* ---- suite ---------------------------------------------------------------- *)

let () =
  Alcotest.run "obs"
    [
      ( "exposition",
        [
          Alcotest.test_case "escaping" `Quick test_escaping;
          Alcotest.test_case "label ordering" `Quick test_label_ordering;
          Alcotest.test_case "histogram" `Quick test_histogram_exposition;
        ] );
      ( "registry",
        [
          Alcotest.test_case "idempotent registration" `Quick test_idempotent_registration;
          qcheck prop_shard_aggregation;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "span tree, pool size 1" `Quick (well_formed_spans 1);
          Alcotest.test_case "span tree, pool size 4" `Quick (well_formed_spans 4);
        ] );
    ]
