(* Text rendering of compiled-plan explanations. Layout is part of the
   golden-test contract: column widths and float formats are fixed, and
   nothing here reads live state (the record is complete). *)

open Plan

let add = Buffer.add_string

let addf buf fmt = Printf.ksprintf (add buf) fmt

let search buf (x : explain_search) =
  addf buf "plan: %s kernel (algorithm %s)\n" x.x_kernel x.x_algorithm;
  addf buf "  reason: %s\n" x.x_reason;
  if x.x_missing <> [] then
    addf buf "  missing: %s\n" (String.concat ", " x.x_missing);
  List.iteri
    (fun i k ->
      addf buf "  %s %-20s id=%-6d postings=%d\n"
        (if i = 0 && x.x_kernel <> "dead" && x.x_kernel <> "boxed" then "lists:" else "      ")
        k.ek_keyword k.ek_id k.ek_postings)
    x.x_keywords;
  match x.x_parallel with
  | None -> ()
  | Some p ->
    addf buf "  parallel: estimate=%.0f threshold=%d" p.xp_estimate p.xp_threshold;
    (match p.xp_measured with
    | Some c -> addf buf " measured=%.0f" c
    | None -> add buf " measured=-");
    (match p.xp_grains with Some g -> addf buf " grains=%d" g | None -> ());
    addf buf " pool=%d\n" p.xp_pool_size;
    if Array.length p.xp_chunk_bounds > 1 then begin
      addf buf "  chunks (%d over %d targeted):" (Array.length p.xp_chunk_bounds - 1) p.xp_chunks;
      Array.iteri
        (fun i b -> if i > 0 then addf buf " %d-%d" p.xp_chunk_bounds.(i - 1) b)
        p.xp_chunk_bounds;
      add buf "\n"
    end;
    if Array.length p.xp_curve > 0 then begin
      add buf "  cost curve:";
      Array.iter (fun (b, c) -> addf buf " %d:%.0f" b c) p.xp_curve;
      add buf "\n"
    end

let search_to_text x =
  let buf = Buffer.create 256 in
  search buf x;
  Buffer.contents buf

let refine_to_text (x : explain_refine) =
  let buf = Buffer.create 256 in
  search buf x.xr_search;
  addf buf "  rules (%d after static pruning):\n" (List.length x.xr_rules);
  List.iter (fun r -> addf buf "    %s\n" r) x.xr_rules;
  Buffer.contents buf
