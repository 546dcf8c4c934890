(* Packed posting lists: Dewey.Packed encoding invariants, packed cursors,
   the packed index views, and the headline property — the packed SLCA
   kernels return byte-identical result lists to the reference kernels. *)

open Xr_xml
module P = Dewey.Packed
module PC = Xr_index.Cursor.Packed
module Inverted = Xr_index.Inverted
module Index = Xr_index.Index
module Engine = Xr_slca.Engine

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ---- generators --------------------------------------------------------- *)

let arb_sorted_labels =
  QCheck.make
    ~print:(fun l -> String.concat " " (List.map Dewey.to_string l))
    (Oracle.gen_sorted_labels 40)

(* ---- Dewey.Packed ------------------------------------------------------- *)

let test_roundtrip () =
  let labels = [| [||]; [| 0 |]; [| 0; 1 |]; [| 127 |]; [| 128 |]; [| 300; 70000; 2 |] |] in
  let pk = P.of_array labels in
  check Alcotest.int "length" (Array.length labels) (P.length pk);
  check Alcotest.int "max depth" 3 (P.max_depth pk);
  Array.iteri
    (fun i l ->
      check (Alcotest.testable Dewey.pp Dewey.equal) "get" l (P.get pk i);
      check Alcotest.int "depth_at" (Array.length l) (P.depth_at pk i))
    labels;
  check Alcotest.bool "to_array" true (Array.for_all2 Dewey.equal labels (P.to_array pk));
  let scratch = Array.make (P.max_depth pk) 0 in
  Array.iteri
    (fun i l ->
      let d = P.blit_entry pk i scratch in
      check Alcotest.int "blit depth" (Array.length l) d;
      check Alcotest.bool "blit content" true (Array.sub scratch 0 d = l))
    labels

let test_empty () =
  check Alcotest.int "empty length" 0 (P.length P.empty);
  check Alcotest.int "empty bytes" 0 (P.byte_size P.empty);
  check Alcotest.bool "empty to_array" true (P.to_array P.empty = [||])

let test_raw_validation () =
  let pk = P.of_list [ [| 1 |]; [| 1; 2 |] ] in
  let buf, offsets, max_depth = P.to_raw pk in
  let back = P.of_raw ~buf ~offsets ~max_depth in
  check Alcotest.bool "raw round-trip" true
    (Array.for_all2 Dewey.equal (P.to_array pk) (P.to_array back));
  Alcotest.check_raises "bad span" (Invalid_argument
      "Dewey.Packed.of_raw: offsets table does not span the buffer")
    (fun () -> ignore (P.of_raw ~buf ~offsets:[| 0; 1 |] ~max_depth));
  Alcotest.check_raises "not monotone" (Invalid_argument
      "Dewey.Packed.of_raw: offsets table is not monotone")
    (fun () ->
      ignore (P.of_raw ~buf ~offsets:[| 0; 3; 2; String.length buf |] ~max_depth:2))

let prop_compare_consistent =
  QCheck.Test.make ~name:"packed compare/prefix agree with Dewey" ~count:300
    (QCheck.pair arb_sorted_labels (QCheck.make ~print:Dewey.to_string Oracle.gen_label))
    (fun (labels, v) ->
      let pk = P.of_list labels in
      List.for_all
        (fun (i, l) ->
          let sign x = Int.compare x 0 in
          let r = P.compare_prefix_sub pk i v (Array.length v) in
          sign (P.compare_label pk i v) = sign (Dewey.compare l v)
          && P.common_prefix_len_label pk i v = Dewey.common_prefix_len l v
          && (r land 3) - 1 = sign (Dewey.compare l v)
          && r lsr 2 = Dewey.common_prefix_len l v)
        (List.mapi (fun i l -> (i, l)) labels))

let prop_lower_bound =
  QCheck.Test.make ~name:"packed lower_bound = naive scan" ~count:300
    (QCheck.pair arb_sorted_labels (QCheck.make ~print:Dewey.to_string Oracle.gen_label))
    (fun (labels, v) ->
      let pk = P.of_list labels in
      let arr = Array.of_list labels in
      let naive =
        let n = Array.length arr in
        let rec go i = if i < n && Dewey.compare arr.(i) v < 0 then go (i + 1) else i in
        go 0
      in
      P.lower_bound pk ~lo:0 v = naive)

let prop_compare_entries =
  QCheck.Test.make ~name:"packed compare_entries = Dewey.compare" ~count:200 arb_sorted_labels
    (fun labels ->
      let pk = P.of_list labels in
      let arr = Array.of_list labels in
      let n = Array.length arr in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let sign x = Int.compare x 0 in
          if sign (P.compare_entries pk i pk j) <> sign (Dewey.compare arr.(i) arr.(j)) then
            ok := false
        done
      done;
      !ok)

let prop_append =
  QCheck.Test.make ~name:"packed append = packing the concatenation" ~count:200
    (QCheck.pair arb_sorted_labels arb_sorted_labels) (fun (a, b) ->
      P.to_raw (P.append (P.of_list a) (P.of_list b)) = P.to_raw (P.of_list (a @ b))
      && P.to_raw (P.append P.empty (P.of_list b)) = P.to_raw (P.of_list b))

(* ---- Cursor.Packed ------------------------------------------------------ *)

let test_cursor_basics () =
  let pk = P.of_list [ [| 0 |]; [| 0; 1 |]; [| 2 |]; [| 2; 0; 1 |]; [| 5 |] ] in
  let c = PC.make pk in
  check Alcotest.int "start" 0 (PC.position c);
  PC.advance c;
  check Alcotest.int "advanced" 1 (PC.position c);
  check Alcotest.int "seq counter" 1 (PC.sequential_accesses c);
  PC.seek_geq c [| 2; 0 |];
  check Alcotest.int "seek lands" 3 (PC.position c);
  check Alcotest.int "rand counter" 1 (PC.random_accesses c);
  (* seeks never move backward *)
  PC.seek_geq c [| 0 |];
  check Alcotest.int "no backward" 3 (PC.position c);
  PC.seek_geq c [| 9 |];
  check Alcotest.bool "exhausted" true (PC.at_end c)

let test_match_probe () =
  (* against the boxed reference: closest + deepest_prefix_depth *)
  let labels = [ [| 0 |]; [| 0; 1 |]; [| 0; 1; 4 |]; [| 2; 3 |]; [| 2; 5 |]; [| 7 |] ] in
  let arr =
    Array.of_list (List.map (fun d -> { Inverted.dewey = d; path = 0 }) labels)
  in
  let pk = P.of_list labels in
  List.iter
    (fun (v : Dewey.t) ->
      let c = PC.make pk in
      let expected =
        Xr_slca.Slca_common.deepest_prefix_depth v (Xr_slca.Slca_common.closest arr 0 v)
      in
      check Alcotest.int
        (Printf.sprintf "probe %s" (Dewey.to_string v))
        expected
        (PC.match_probe c v (Array.length v)))
    [ [| 0 |]; [| 0; 1; 2 |]; [| 1 |]; [| 2; 4 |]; [| 7 |]; [| 8; 8 |] ]

let prop_match_probe =
  QCheck.Test.make ~name:"match_probe = closest+deepest_prefix_depth" ~count:300
    (QCheck.pair arb_sorted_labels
       (QCheck.make
          ~print:(fun l -> String.concat " " (List.map Dewey.to_string l))
          QCheck.Gen.(list_size (int_range 1 15) Oracle.gen_label |> map (List.sort Dewey.compare))))
    (fun (labels, probes) ->
      let pk = P.of_list labels in
      let arr =
        Array.of_list (List.map (fun d -> { Inverted.dewey = d; path = 0 }) labels)
      in
      let c = PC.make pk in
      (* probes ascend, like a scan driver, so the cursor resumes; because
         everything before the resume point stays below the next probe,
         the from-scratch [closest arr 0] model gives the same brackets *)
      List.for_all
        (fun v ->
          let expected =
            Xr_slca.Slca_common.deepest_prefix_depth v (Xr_slca.Slca_common.closest arr 0 v)
          in
          PC.match_probe c v (Array.length v) = expected)
        probes)

(* ---- allocation-free probes ---------------------------------------------- *)

(* The probe primitives allocate nothing: each runs [calls] times over a
   list whose labels mix one- and two-byte components, and the minor
   heap may grow by less than one word per call. A probe written with a
   local closure fails this without flambda, which heap-allocates the
   closure on every call. *)
let calls = 10_000

let alloc_labels =
  Array.init (calls + 1) (fun i -> [| 200 + i; 3; 130 + (i mod 50); i mod 7 |])

let alloc_pk = lazy (P.of_array alloc_labels)

(* [make pk] sets up (and may allocate); the per-call function it returns
   is what is measured. *)
let test_alloc_free make () =
  let f = make (Lazy.force alloc_pk) in
  let before = Gc.minor_words () in
  for i = 0 to calls - 1 do
    f i
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
  if per_call >= 1.0 then Alcotest.failf "%.2f minor words per call" per_call

let alloc_probes =
  let full = 4 and label i = alloc_labels.(i) in
  let cursor_probe step pk =
    let c = PC.make pk in
    fun i -> step c (label (i + 1))
  in
  let entry_probe probe pk i = ignore (Sys.opaque_identity (probe pk i (label i) full)) in
  [
    ("compare_sub", entry_probe P.compare_sub);
    ("common_prefix_len_sub", entry_probe P.common_prefix_len_sub);
    ("compare_prefix_sub", entry_probe P.compare_prefix_sub);
    ( "compare_entries",
      fun pk i -> ignore (Sys.opaque_identity (P.compare_entries pk i pk (i + 1))) );
    ( "blit_entry",
      fun pk ->
        let dst = Array.make (P.max_depth pk) 0 in
        fun i -> ignore (Sys.opaque_identity (P.blit_entry pk i dst)) );
    ("Cursor.Packed.seek_geq_sub", cursor_probe (fun c v -> PC.seek_geq_sub c v full));
    ( "Cursor.Packed.match_probe",
      cursor_probe (fun c v -> ignore (Sys.opaque_identity (PC.match_probe c v full))) );
  ]

(* ---- packed index views -------------------------------------------------- *)

let test_inverted_views () =
  let index = Index.build (Xr_data.Figure1.doc ()) in
  let inv = index.Index.inverted in
  Inverted.iter_packed
    (fun kw pk ->
      let decoded = Inverted.list inv kw in
      check Alcotest.int "lengths agree" (Array.length decoded)
        (Inverted.packed_postings pk);
      Array.iteri
        (fun i (p : Inverted.posting) ->
          check Alcotest.bool "labels agree" true (Dewey.equal p.Inverted.dewey (P.get pk.Inverted.labels i));
          check Alcotest.int "paths agree" p.Inverted.path pk.Inverted.paths.(i))
        decoded;
      check Alcotest.bool "bytes accounted" true
        (Inverted.packed_bytes pk >= Inverted.packed_label_bytes pk))
    inv

(* ---- the satellite property: packed kernels == reference kernels --------- *)

let arb_doc_query =
  QCheck.make
    ~print:(fun (t, q) -> Xr_xml.Printer.to_string t ^ "\nquery: " ^ String.concat "," q)
    QCheck.Gen.(
      pair Oracle.gen_doc
        (list_size (int_range 1 4) (oneofl [ "x"; "y"; "z"; "w"; "a"; "b"; "c" ])))

let prop_packed_equals_reference =
  QCheck.Test.make
    ~name:"packed kernels byte-identical to reference on random docs" ~count:400 arb_doc_query
    (fun (tree, query) ->
      let index = Index.build (Doc.of_tree tree) in
      let pairs =
        [ (Engine.Scan_eager, Engine.Scan_packed); (Engine.Stack, Engine.Stack_packed) ]
      in
      List.for_all
        (fun (reference, packed) ->
          List.equal Dewey.equal
            (Engine.query reference index query)
            (Engine.query packed index query))
        pairs)

let prop_packed_roundtrip_store =
  QCheck.Test.make ~name:"packed lists survive save/load byte-identically" ~count:60 arb_doc_query
    (fun (tree, query) ->
      let index = Index.build (Doc.of_tree tree) in
      let kv = Xr_store.Kv.memory () in
      Index.save index kv;
      let reloaded = Index.load kv in
      List.for_all
        (fun alg ->
          List.equal Dewey.equal (Engine.query alg index query)
            (Engine.query alg reloaded query))
        [ Engine.Scan_packed; Engine.Stack_packed ])

let () =
  Alcotest.run "xr_packed"
    [
      ( "dewey-packed",
        [
          Alcotest.test_case "round-trip" `Quick test_roundtrip;
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "raw validation" `Quick test_raw_validation;
          qcheck prop_compare_consistent;
          qcheck prop_lower_bound;
          qcheck prop_compare_entries;
          qcheck prop_append;
        ] );
      ( "cursor-packed",
        [
          Alcotest.test_case "basics" `Quick test_cursor_basics;
          Alcotest.test_case "match probe" `Quick test_match_probe;
          qcheck prop_match_probe;
        ] );
      ( "alloc-free",
        List.map
          (fun (name, make) -> Alcotest.test_case name `Quick (test_alloc_free make))
          alloc_probes );
      ("inverted", [ Alcotest.test_case "packed = legacy views" `Quick test_inverted_views ]);
      ( "kernels",
        [ qcheck prop_packed_equals_reference; qcheck prop_packed_roundtrip_store ] );
    ]
