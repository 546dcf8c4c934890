(* Slow-query log lines: one self-contained JSON object per offending
   request, with the request's span breakdown inlined so the line is
   actionable without a follow-up /debug/trace call (the spans may have
   been evicted by then). Hand-rolled rendering keeps xr_obs free of a
   JSON dependency; span names and endpoints are escaped so arbitrary
   request paths cannot break the line structure. *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let span_json (sp : Tracing.span) =
  Printf.sprintf {|{"name":"%s","ms":%.3f,"id":%d,"parent":%d,"domain":%d}|}
    (escape sp.Tracing.name)
    (Int64.to_float sp.Tracing.dur_ns /. 1e6)
    sp.Tracing.span_id sp.Tracing.parent_id sp.Tracing.domain

let corpus_json (name, generation) =
  Printf.sprintf {|{"corpus":"%s","generation":%d}|} (escape name) generation

let render ~endpoint ~status ~ms ~trace_id ?(corpora = []) spans =
  let corpora_field =
    match corpora with
    | [] -> ""
    | cs -> Printf.sprintf {|,"corpora":[%s]|} (String.concat "," (List.map corpus_json cs))
  in
  Printf.sprintf
    {|{"slow_query":true,"endpoint":"%s","status":%d,"ms":%.3f,"trace":%d%s,"spans":[%s]}|}
    (escape endpoint) status ms trace_id corpora_field
    (String.concat "," (List.map span_json spans))
